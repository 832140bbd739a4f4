package m3fs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func newFS() *FsCore { return NewFsCore(1<<20, 1024) } // 1024 blocks

func TestCreateLookup(t *testing.T) {
	fs := newFS()
	if _, err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create("/a/f"); err != nil {
		t.Fatal(err)
	}
	ino, depth, err := fs.Lookup("/a/f")
	if err != nil || ino.Dir || depth != 2 {
		t.Fatalf("lookup = %v depth=%d err=%v", ino, depth, err)
	}
	if _, _, err := fs.Lookup("/a/g"); err == nil {
		t.Fatal("missing file must not resolve")
	}
	if _, _, err := fs.Create("/a/f"); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, _, err := fs.Create("/nodir/f"); err == nil {
		t.Fatal("create under missing dir must fail")
	}
}

func TestAppendMergeAndNoMerge(t *testing.T) {
	fs := newFS()
	ino, _, _ := fs.Create("/f")
	if _, err := fs.Append(ino, 10, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Append(ino, 10, false); err != nil {
		t.Fatal(err)
	}
	if len(ino.Extents) != 1 || ino.Extents[0].Blocks != 20 {
		t.Fatalf("merged extents = %v", ino.Extents)
	}
	if _, err := fs.Append(ino, 10, true); err != nil {
		t.Fatal(err)
	}
	if len(ino.Extents) != 2 {
		t.Fatalf("noMerge extents = %v", ino.Extents)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateFreesBlocks(t *testing.T) {
	fs := newFS()
	ino, _, _ := fs.Create("/f")
	if _, err := fs.Append(ino, 256, false); err != nil {
		t.Fatal(err)
	}
	used := fs.UsedBlocks()
	if used != 256 {
		t.Fatalf("used = %d", used)
	}
	fs.Truncate(ino, 10*1024) // keep 10 blocks
	if fs.UsedBlocks() != 10 {
		t.Fatalf("after truncate used = %d, want 10", fs.UsedBlocks())
	}
	if ino.Size != 10*1024 {
		t.Fatalf("size = %d", ino.Size)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateToZeroRemovesExtents(t *testing.T) {
	fs := newFS()
	ino, _, _ := fs.Create("/f")
	_, _ = fs.Append(ino, 16, true)
	_, _ = fs.Append(ino, 16, true)
	fs.Truncate(ino, 0)
	if len(ino.Extents) != 0 || ino.AllocBlocks != 0 {
		t.Fatalf("extents = %v alloc = %d", ino.Extents, ino.AllocBlocks)
	}
	if fs.UsedBlocks() != 0 {
		t.Fatalf("used = %d", fs.UsedBlocks())
	}
}

func TestUnlinkFreesBlocks(t *testing.T) {
	fs := newFS()
	ino, _, _ := fs.Create("/f")
	_, _ = fs.Append(ino, 100, false)
	fs.Truncate(ino, 100*1024)
	if _, err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.UsedBlocks() != 0 {
		t.Fatalf("used = %d after unlink", fs.UsedBlocks())
	}
	if _, _, err := fs.Lookup("/f"); err == nil {
		t.Fatal("unlinked file still resolves")
	}
}

func TestUnlinkNonEmptyDirFails(t *testing.T) {
	fs := newFS()
	_, _ = fs.Mkdir("/d")
	_, _, _ = fs.Create("/d/f")
	if _, err := fs.Unlink("/d"); err == nil {
		t.Fatal("unlink of non-empty dir must fail")
	}
	if _, err := fs.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Unlink("/d"); err != nil {
		t.Fatal(err)
	}
}

func TestFindExtent(t *testing.T) {
	fs := newFS()
	ino, _, _ := fs.Create("/f")
	_, _ = fs.Append(ino, 4, true) // [0, 4K)
	_, _ = fs.Append(ino, 8, true) // [4K, 12K)
	ext, off, l, ok := fs.FindExtent(ino, 0)
	if !ok || off != 0 || l != 4096 || ext.Blocks != 4 {
		t.Fatalf("first = %v %d %d %v", ext, off, l, ok)
	}
	_, off, l, ok = fs.FindExtent(ino, 5000)
	if !ok || off != 4096 || l != 8192 {
		t.Fatalf("second = %d %d %v", off, l, ok)
	}
	if _, _, _, ok := fs.FindExtent(ino, 12288); ok {
		t.Fatal("offset beyond allocation must miss")
	}
}

func TestAllocExhaustion(t *testing.T) {
	fs := NewFsCore(16*1024, 1024) // 16 blocks
	ino, _, _ := fs.Create("/f")
	if _, err := fs.Append(ino, 16, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Append(ino, 1, false); err == nil {
		t.Fatal("allocation past capacity must fail")
	}
}

// TestFsckProperty performs random filesystem operations and checks
// the block-accounting invariants after each batch.
func TestFsckProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fs := NewFsCore(1<<20, 1024)
		var files []*Inode
		var paths []string
		for i, op := range ops {
			switch op % 5 {
			case 0:
				p := fmt.Sprintf("/f%d", i)
				if ino, _, err := fs.Create(p); err == nil {
					files = append(files, ino)
					paths = append(paths, p)
				}
			case 1, 2:
				if len(files) > 0 {
					ino := files[int(op)%len(files)]
					_, _ = fs.Append(ino, int(op%64)+1, op%2 == 0)
				}
			case 3:
				if len(files) > 0 {
					ino := files[int(op)%len(files)]
					fs.Truncate(ino, int64(op)*17)
				}
			case 4:
				if len(paths) > 0 {
					i := int(op) % len(paths)
					if _, err := fs.Unlink(paths[i]); err == nil {
						files = append(files[:i], files[i+1:]...)
						paths = append(paths[:i], paths[i+1:]...)
					}
				}
			}
		}
		return fs.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// splitRef is the component list a path stands for: its "/"-separated
// parts without empty and "." ones.
func splitRef(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			out = append(out, c)
		}
	}
	return out
}

// TestPathWalkMatchesSplit: walking a path by index visits exactly the
// components a split would produce, and lastComp names the last one
// with everything before it as the parent.
func TestPathWalkMatchesSplit(t *testing.T) {
	paths := []string{"", "/", ".", "/.", "a", "/a", "a/", "/a/b", "a//b", "/a/./b/", "./a/b/.",
		"//a///b//c//", "/i3/tree/d0/f1", "/./././", "a/.b/..", "/x/./"}
	for _, p := range paths {
		var got []string
		for c, i := nextComp(p, 0); c != ""; c, i = nextComp(p, i) {
			got = append(got, c)
		}
		want := splitRef(p)
		if !slices.Equal(got, want) {
			t.Errorf("walk(%q) = %q, want %q", p, got, want)
		}
		name, start := lastComp(p)
		if len(want) == 0 {
			if name != "" {
				t.Errorf("lastComp(%q) = %q, want none", p, name)
			}
			continue
		}
		if name != want[len(want)-1] || !slices.Equal(splitRef(p[:start]), want[:len(want)-1]) {
			t.Errorf("lastComp(%q) = %q at %d, want %q after %q", p, name, start, want[len(want)-1], want[:len(want)-1])
		}
	}
}
