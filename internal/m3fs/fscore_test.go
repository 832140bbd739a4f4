package m3fs

import (
	"fmt"
	"math/rand"
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

// nsModel is a reference namespace: every path's inode number and
// type, in a flat map, with the directory structure implied by the
// paths.
type nsModel struct {
	ino map[string]uint64
	dir map[string]bool
}

func (m *nsModel) parent(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}

// children returns the names directly below dir, sorted.
func (m *nsModel) children(dir string) []string {
	var names []string
	for p := range m.ino {
		if p != "/" && m.parent(p) == dir {
			names = append(names, p[strings.LastIndexByte(p, '/')+1:])
		}
	}
	slices.Sort(names)
	return names
}

// canAdd reports whether a new entry may go at p.
func (m *nsModel) canAdd(p string) bool {
	_, exists := m.ino[p]
	return !exists && m.dir[m.parent(p)]
}

// TestNamespaceMatchesMapModel drives random mkdir, create, unlink,
// rename and link over a small name space and checks every directory
// against a flat map of paths: the same operations succeed, every path
// resolves to its inode, and each directory lists exactly its children
// in name order.
func TestNamespaceMatchesMapModel(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := newFS()
		m := &nsModel{ino: map[string]uint64{"/": fs.Root().Ino}, dir: map[string]bool{"/": true}}
		randPath := func() string {
			p := ""
			for d := rng.Intn(3); d >= 0; d-- {
				p += "/" + names[rng.Intn(len(names))]
			}
			return p
		}
		for op := 0; op < 300; op++ {
			p, q := randPath(), randPath()
			ctx := fmt.Sprintf("seed %d op %d", seed, op)
			var err error
			var want bool
			switch k := rng.Intn(5); k {
			case 0, 1:
				want = m.canAdd(p)
				var ino *Inode
				if k == 0 {
					_, err = fs.Mkdir(p)
					if err == nil {
						ino, _, _ = fs.Lookup(p)
					}
				} else {
					ino, _, err = fs.Create(p)
				}
				if err == nil {
					m.ino[p], m.dir[p] = ino.Ino, k == 0
				}
			case 2:
				_, exists := m.ino[p]
				want = exists && (!m.dir[p] || len(m.children(p)) == 0)
				if _, err = fs.Unlink(p); err == nil {
					delete(m.ino, p)
					delete(m.dir, p)
				}
			case 3:
				_, exists := m.ino[p]
				want = exists && m.canAdd(q) && q != p && !strings.HasPrefix(q, p+"/")
				if _, err = fs.Rename(p, q); err == nil {
					for old := range m.ino {
						if old == p || strings.HasPrefix(old, p+"/") {
							moved := q + old[len(p):]
							m.ino[moved], m.dir[moved] = m.ino[old], m.dir[old]
							delete(m.ino, old)
							delete(m.dir, old)
						}
					}
				}
			case 4:
				_, exists := m.ino[p]
				want = exists && !m.dir[p] && m.canAdd(q)
				if _, err = fs.Link(p, q); err == nil {
					m.ino[q] = m.ino[p]
				}
			}
			if (err == nil) != want {
				t.Fatalf("%s: op on %s, %s: err %v, model says success %v", ctx, p, q, err, want)
			}
			for path, n := range m.ino {
				ino, _, err := fs.Lookup(path)
				if err != nil || ino.Ino != n {
					t.Fatalf("%s: Lookup(%s) = %v, %v; want inode %d", ctx, path, ino, err, n)
				}
				if !m.dir[path] {
					continue
				}
				got, _, err := fs.ReadDir(path)
				if want := m.children(path); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: ReadDir(%s) = %v, %v; want %v", ctx, path, got, err, want)
				}
			}
			if err := fs.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
	}
}
