// Command m3fsck checks an m3fs image: it decodes the superblock,
// inode table, directory table, and data blocks, verifies the block
// accounting invariants (no sharing, bitmap consistency), and prints a
// summary. Images come from the m3fs sync operation (see
// internal/m3fs/image.go) or from any tool that writes the same format.
//
// With -journal, it additionally verifies a raw metadata-journal area
// (the tail of a crashed service's DRAM region, see
// internal/m3fs/journal.go and docs/RECOVERY.md): the committed records
// are decoded, listed, and replayed onto the image, and the invariants
// are re-checked on the recovered filesystem — the same path the
// supervisor-restarted service takes at boot.
//
// Usage:
//
//	m3fsck image.m3fs
//	m3fsck -journal journal.bin image.m3fs
//	some-tool | m3fsck -        # read the image from stdin
//	m3fsck -selftest            # self-check, including journal replay
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/m3fs"
)

func main() {
	journalPath := flag.String("journal", "", "raw journal area to verify and replay onto the image")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: m3fsck [-journal <file>] <image-file | - | -selftest>")
		flag.PrintDefaults()
	}
	// -selftest predates the flag syntax; recognize it before flag
	// parsing would reject it as an unknown flag.
	selftest := len(os.Args) == 2 && os.Args[1] == "-selftest"
	if !selftest {
		flag.Parse()
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
	}

	var data, jdata []byte
	var err error
	switch {
	case selftest:
		data, jdata = sampleImage()
	case flag.Arg(0) == "-":
		data, err = io.ReadAll(os.Stdin)
	default:
		data, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		log.Fatalf("m3fsck: %v", err)
	}
	if *journalPath != "" {
		if jdata, err = os.ReadFile(*journalPath); err != nil {
			log.Fatalf("m3fsck: %v", err)
		}
	}

	blocks := 0
	fs, err := m3fs.UnmarshalImage(data, func(block int, content []byte) error {
		blocks++
		return nil
	})
	if err != nil {
		log.Fatalf("m3fsck: image is corrupt: %v", err)
	}
	if err := fs.CheckInvariants(); err != nil {
		log.Fatalf("m3fsck: inconsistent filesystem: %v", err)
	}
	if jdata != nil {
		replayJournal(fs, jdata)
	}
	fmt.Printf("m3fs image: clean\n")
	fmt.Printf("  block size:   %d bytes\n", fs.BlockSize)
	fmt.Printf("  total blocks: %d\n", fs.TotalBlocks)
	fmt.Printf("  used blocks:  %d (%d with content in image)\n", fs.UsedBlocks(), blocks)
	fmt.Printf("  tree:\n")
	printTree(fs, "/", "  ")
}

// replayJournal verifies a journal area against the image and applies
// its committed records, dying on any structural or replay error.
func replayJournal(fs *m3fs.FsCore, area []byte) {
	recs, err := m3fs.DecodeJournal(area)
	if err != nil {
		log.Fatalf("m3fsck: journal is corrupt: %v", err)
	}
	kinds := make(map[string]int)
	for _, r := range recs {
		kinds[r.KindName()]++
	}
	if _, err := m3fs.ReplayJournal(fs, recs); err != nil {
		log.Fatalf("m3fsck: journal does not replay onto this image: %v", err)
	}
	if err := fs.CheckInvariants(); err != nil {
		log.Fatalf("m3fsck: filesystem inconsistent after journal replay: %v", err)
	}
	fmt.Printf("m3fs journal: clean, %d committed records replayed\n", len(recs))
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-7s %d\n", name, kinds[name])
	}
}

func printTree(fs *m3fs.FsCore, path, indent string) {
	names, dir, err := fs.ReadDir(path)
	if err != nil {
		return
	}
	for _, name := range names {
		child := fs.Child(dir, name)
		if child == nil {
			continue
		}
		if child.Dir {
			fmt.Printf("%s  %s/\n", indent, name)
			sub := path + name + "/"
			if path == "/" {
				sub = "/" + name + "/"
			}
			printTree(fs, sub, indent+"  ")
		} else {
			fmt.Printf("%s  %s (%d bytes, %d extents)\n", indent, name, child.Size, len(child.Extents))
		}
	}
}

// sampleImage builds a small in-memory filesystem image plus a journal
// of post-snapshot mutations for -selftest, exercising the same
// crash-recovery replay path a restarted m3fs runs.
func sampleImage() (image, journal []byte) {
	fs := m3fs.NewFsCore(1<<20, 1024)
	mustOK := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	if _, err := fs.Mkdir("/etc"); err != nil {
		log.Fatal(err)
	}
	if _, err := fs.Mkdir("/home"); err != nil {
		log.Fatal(err)
	}
	ino, _, err := fs.Create("/etc/motd")
	mustOK(err)
	_, err = fs.Append(ino, 2, false)
	mustOK(err)
	fs.Truncate(ino, 1500)
	image = fs.MarshalImage(func(block int) []byte { return make([]byte, 1024) })

	// Mutations a crashed service would have journaled after the boot
	// image was taken: the selftest replays them onto the image above.
	journal = m3fs.EncodeJournal([]m3fs.JRecord{
		{Kind: m3fs.JMkdir, Key: 2, Seq: 1, Path: "/home/user"},
		{Kind: m3fs.JCreate, Key: 2, Seq: 2, Path: "/home/user/notes"},
		{Kind: m3fs.JAppend, Key: 2, Seq: 3, Ino: ino.Ino, Blocks: 1},
		{Kind: m3fs.JRename, Key: 2, Seq: 4, Path: "/home/user/notes", Path2: "/home/user/todo"},
	})
	return image, journal
}
