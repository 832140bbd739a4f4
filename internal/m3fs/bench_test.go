package m3fs

import (
	"fmt"
	"testing"

	"repro/internal/kif"
)

// meta16Tree builds the namespace perf's meta16 workload walks: each of
// 16 clients has /i<c>/tree with four directories of nine files, every
// third a match. It returns the filesystem, every file's path and
// every directory's.
func meta16Tree(b *testing.B) (fs *FsCore, files, dirs []string) {
	fs = NewFsCore(1<<20, 1024)
	mkdir := func(p string) {
		if _, err := fs.Mkdir(p); err != nil {
			b.Fatal(err)
		}
	}
	for c := 0; c < 16; c++ {
		root := fmt.Sprintf("/i%d", c)
		mkdir(root)
		mkdir(root + "/tree")
		for d := 0; d < 4; d++ {
			dir := fmt.Sprintf("%s/tree/dir%d", root, d)
			mkdir(dir)
			dirs = append(dirs, dir)
			for f := 0; f < 9; f++ {
				p := fmt.Sprintf("%s/file%d.txt", dir, f)
				if f%3 == 0 {
					p = fmt.Sprintf("%s/match%d.log", dir, f)
				}
				if _, _, err := fs.Create(p); err != nil {
					b.Fatal(err)
				}
				files = append(files, p)
			}
		}
	}
	return fs, files, dirs
}

// BenchmarkLookup resolves meta16's file paths in turn, the walk every
// stat and open starts with: a binary search per component.
func BenchmarkLookup(b *testing.B) {
	fs, files, _ := meta16Tree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, e := fs.lookup(files[i%len(files)]); e != kif.OK {
			b.Fatal(e)
		}
	}
}

// BenchmarkReadDir lists one of meta16's nine-entry directories per op,
// in the two chunks a client's ReadDir asks for, marshalled into a
// reused reply stream as the service does.
func BenchmarkReadDir(b *testing.B) {
	fs, _, dirs := meta16Tree(b)
	var o kif.OStream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := dirs[i%len(dirs)]
		for idx := uint64(0); idx < 9; idx += dirChunk {
			if e := fs.listChunk(o.Reset(), dir, idx); e != kif.OK {
				b.Fatal(e)
			}
		}
	}
}
