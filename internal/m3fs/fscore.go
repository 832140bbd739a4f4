// Package m3fs implements the paper's in-memory filesystem service and
// its libm3 client (§4.5.8).
//
// m3fs is organized like classical UNIX filesystems — superblock,
// inode and block bitmaps, an inode table, and directories pointing to
// inodes — with file data described by extents (start block + block
// count), as in ext4/btrfs. The service only handles meta-data: for
// data access it delegates memory capabilities covering extents to the
// client, which then reads and writes the file contents directly in
// DRAM through its DTU, without involving m3fs (the GoogleFS-like
// separation of meta-data from data).
package m3fs

import (
	"fmt"
	"sort"
	"strings"
)

// Extent is a contiguous run of blocks.
type Extent struct {
	Start  int // first block
	Blocks int
}

// Inode is one file or directory.
type Inode struct {
	Ino     uint64
	Dir     bool
	Size    int64
	Extents []Extent
	// AllocBlocks counts blocks reserved for the file, including
	// preallocation beyond Size (trimmed on close).
	AllocBlocks int
	// Nlink counts directory entries referencing the inode; blocks are
	// freed when the last link goes (hard links, §4.5.8's "link").
	Nlink int

	entries map[string]uint64 // directories
}

// FsCore is the simulator-independent filesystem state: superblock
// parameters, bitmaps, inodes, and directories. The service wraps it
// with the DTU protocol; keeping it separate makes the filesystem
// logic directly unit- and property-testable.
type FsCore struct {
	BlockSize   int
	TotalBlocks int

	bitmap  []bool // block allocation bitmap
	used    int
	inodes  map[uint64]*Inode
	nextIno uint64
	root    *Inode
}

// NewFsCore formats a filesystem over size bytes with the given block
// size.
func NewFsCore(size, blockSize int) *FsCore {
	if blockSize <= 0 {
		blockSize = 1024
	}
	fs := &FsCore{
		BlockSize:   blockSize,
		TotalBlocks: size / blockSize,
		inodes:      make(map[uint64]*Inode),
	}
	fs.bitmap = make([]bool, fs.TotalBlocks)
	fs.root = fs.newInode(true)
	return fs
}

func (fs *FsCore) newInode(dir bool) *Inode {
	fs.nextIno++
	ino := &Inode{Ino: fs.nextIno, Dir: dir, Nlink: 1}
	if dir {
		ino.entries = make(map[string]uint64)
	}
	fs.inodes[ino.Ino] = ino
	return ino
}

// Root returns the root directory inode.
func (fs *FsCore) Root() *Inode { return fs.root }

// Inode returns an inode by number.
func (fs *FsCore) Inode(ino uint64) *Inode { return fs.inodes[ino] }

// UsedBlocks returns the allocated block count.
func (fs *FsCore) UsedBlocks() int { return fs.used }

// split cleans a path into components.
func split(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			out = append(out, c)
		}
	}
	return out
}

// Lookup resolves path to an inode. The returned depth is the number
// of components walked (for cost accounting).
func (fs *FsCore) Lookup(path string) (ino *Inode, depth int, err error) {
	cur := fs.root
	comps := split(path)
	for i, c := range comps {
		if !cur.Dir {
			return nil, i, fmt.Errorf("m3fs: %s: not a directory", path)
		}
		next, ok := cur.entries[c]
		if !ok {
			return nil, i, fmt.Errorf("m3fs: %s: no such file or directory", path)
		}
		cur = fs.inodes[next]
	}
	return cur, len(comps), nil
}

// lookupParent resolves all but the last component.
func (fs *FsCore) lookupParent(path string) (*Inode, string, int, error) {
	comps := split(path)
	if len(comps) == 0 {
		return nil, "", 0, fmt.Errorf("m3fs: %s: invalid path", path)
	}
	dirPath := strings.Join(comps[:len(comps)-1], "/")
	dir, depth, err := fs.Lookup(dirPath)
	if err != nil {
		return nil, "", depth, err
	}
	if !dir.Dir {
		return nil, "", depth, fmt.Errorf("m3fs: %s: not a directory", dirPath)
	}
	return dir, comps[len(comps)-1], depth, nil
}

// Create makes a new regular file at path (parent must exist).
func (fs *FsCore) Create(path string) (*Inode, int, error) {
	dir, name, depth, err := fs.lookupParent(path)
	if err != nil {
		return nil, depth, err
	}
	if _, exists := dir.entries[name]; exists {
		return nil, depth, fmt.Errorf("m3fs: %s: already exists", path)
	}
	ino := fs.newInode(false)
	dir.entries[name] = ino.Ino
	return ino, depth, nil
}

// Mkdir makes a new directory at path.
func (fs *FsCore) Mkdir(path string) (int, error) {
	dir, name, depth, err := fs.lookupParent(path)
	if err != nil {
		return depth, err
	}
	if _, exists := dir.entries[name]; exists {
		return depth, fmt.Errorf("m3fs: %s: already exists", path)
	}
	ino := fs.newInode(true)
	dir.entries[name] = ino.Ino
	return depth, nil
}

// Unlink removes the directory entry at path; the inode and its
// blocks are freed when the last link goes.
func (fs *FsCore) Unlink(path string) (int, error) {
	dir, name, depth, err := fs.lookupParent(path)
	if err != nil {
		return depth, err
	}
	inoNum, ok := dir.entries[name]
	if !ok {
		return depth, fmt.Errorf("m3fs: %s: no such file or directory", path)
	}
	ino := fs.inodes[inoNum]
	if ino.Dir && len(ino.entries) > 0 {
		return depth, fmt.Errorf("m3fs: %s: directory not empty", path)
	}
	delete(dir.entries, name)
	ino.Nlink--
	if ino.Nlink <= 0 {
		for _, e := range ino.Extents {
			fs.freeRange(e.Start, e.Blocks)
		}
		delete(fs.inodes, inoNum)
	}
	return depth, nil
}

// Link creates a second directory entry for the file at oldPath (hard
// link). Directories cannot be linked.
func (fs *FsCore) Link(oldPath, newPath string) (int, error) {
	ino, depth, err := fs.Lookup(oldPath)
	if err != nil {
		return depth, err
	}
	if ino.Dir {
		return depth, fmt.Errorf("m3fs: %s: cannot link a directory", oldPath)
	}
	dir, name, d2, err := fs.lookupParent(newPath)
	if err != nil {
		return depth + d2, err
	}
	if _, exists := dir.entries[name]; exists {
		return depth + d2, fmt.Errorf("m3fs: %s: already exists", newPath)
	}
	dir.entries[name] = ino.Ino
	ino.Nlink++
	return depth + d2, nil
}

// Rename moves the entry at oldPath to newPath, replacing nothing (a
// destination that exists is an error, keeping the operation simple
// and explicit).
func (fs *FsCore) Rename(oldPath, newPath string) (int, error) {
	oldDir, oldName, d1, err := fs.lookupParent(oldPath)
	if err != nil {
		return d1, err
	}
	inoNum, ok := oldDir.entries[oldName]
	if !ok {
		return d1, fmt.Errorf("m3fs: %s: no such file or directory", oldPath)
	}
	newDir, newName, d2, err := fs.lookupParent(newPath)
	if err != nil {
		return d1 + d2, err
	}
	if _, exists := newDir.entries[newName]; exists {
		return d1 + d2, fmt.Errorf("m3fs: %s: already exists", newPath)
	}
	// Moving a directory under itself would orphan the subtree.
	moving := fs.inodes[inoNum]
	if moving.Dir && fs.isAncestor(moving, newDir) {
		return d1 + d2, fmt.Errorf("m3fs: cannot move %s into itself", oldPath)
	}
	delete(oldDir.entries, oldName)
	newDir.entries[newName] = inoNum
	return d1 + d2, nil
}

// isAncestor reports whether dir is anc or lies below anc.
func (fs *FsCore) isAncestor(anc, dir *Inode) bool {
	if anc == dir {
		return true
	}
	//m3vet:allow nodeterminism boolean reachability query; the result is independent of visit order
	for _, child := range anc.entries {
		c := fs.inodes[child]
		if c != nil && c.Dir && fs.isAncestor(c, dir) {
			return true
		}
	}
	return false
}

// ReadDir lists the entries of the directory at path, sorted order not
// guaranteed (callers sort if needed).
func (fs *FsCore) ReadDir(path string) ([]string, *Inode, error) {
	dir, _, err := fs.Lookup(path)
	if err != nil {
		return nil, nil, err
	}
	if !dir.Dir {
		return nil, nil, fmt.Errorf("m3fs: %s: not a directory", path)
	}
	names := make([]string, 0, len(dir.entries))
	for n := range dir.entries {
		names = append(names, n)
	}
	return names, dir, nil
}

// Child returns the inode of a directory entry.
func (fs *FsCore) Child(dir *Inode, name string) *Inode {
	if !dir.Dir {
		return nil
	}
	if n, ok := dir.entries[name]; ok {
		return fs.inodes[n]
	}
	return nil
}

// allocRange finds n free contiguous blocks starting the search at
// hint, marking them used. It returns the first block, or -1.
func (fs *FsCore) allocRange(n, hint int) int {
	if n <= 0 || fs.used+n > fs.TotalBlocks {
		return -1
	}
	run := 0
	for i := hint; i < fs.TotalBlocks; i++ {
		if fs.bitmap[i] {
			run = 0
			continue
		}
		run++
		if run == n {
			start := i - n + 1
			for j := start; j <= i; j++ {
				fs.bitmap[j] = true
			}
			fs.used += n
			return start
		}
	}
	if hint > 0 {
		return fs.allocRange(n, 0)
	}
	return -1
}

func (fs *FsCore) freeRange(start, n int) {
	for i := start; i < start+n; i++ {
		if fs.bitmap[i] {
			fs.bitmap[i] = false
			fs.used--
		}
	}
}

// Append reserves blocks extra blocks for ino, extending the last
// extent in place when the blocks happen to be contiguous (unless
// noMerge forces a separate extent, used by the fragmentation
// experiment). It returns the extent index covering the new space.
func (fs *FsCore) Append(ino *Inode, blocks int, noMerge bool) (Extent, error) {
	hint := 0
	if n := len(ino.Extents); n > 0 {
		hint = ino.Extents[n-1].Start + ino.Extents[n-1].Blocks
	}
	start := fs.allocRange(blocks, hint)
	if start < 0 {
		return Extent{}, fmt.Errorf("m3fs: no space for %d blocks", blocks)
	}
	ino.AllocBlocks += blocks
	if n := len(ino.Extents); !noMerge && n > 0 {
		last := &ino.Extents[n-1]
		if last.Start+last.Blocks == start {
			last.Blocks += blocks
			return Extent{Start: start, Blocks: blocks}, nil
		}
	}
	ino.Extents = append(ino.Extents, Extent{Start: start, Blocks: blocks})
	return Extent{Start: start, Blocks: blocks}, nil
}

// Truncate trims preallocated blocks beyond size (the close operation
// "truncates it to the actually used space").
func (fs *FsCore) Truncate(ino *Inode, size int64) {
	if size > ino.Size {
		ino.Size = size
	}
	needed := int((size + int64(fs.BlockSize) - 1) / int64(fs.BlockSize))
	excess := ino.AllocBlocks - needed
	for excess > 0 && len(ino.Extents) > 0 {
		last := &ino.Extents[len(ino.Extents)-1]
		trim := last.Blocks
		if trim > excess {
			trim = excess
		}
		fs.freeRange(last.Start+last.Blocks-trim, trim)
		last.Blocks -= trim
		ino.AllocBlocks -= trim
		excess -= trim
		if last.Blocks == 0 {
			ino.Extents = ino.Extents[:len(ino.Extents)-1]
		}
	}
	ino.Size = size
}

// FindExtent returns the extent containing byte offset off, its index,
// and the byte range [extOff, extOff+extLen) of the file it covers.
// Preallocated space past Size is addressable (for writers).
func (fs *FsCore) FindExtent(ino *Inode, off int64) (ext Extent, extOff, extLen int64, ok bool) {
	var cur int64
	bs := int64(fs.BlockSize)
	for _, e := range ino.Extents {
		l := int64(e.Blocks) * bs
		if off >= cur && off < cur+l {
			return e, cur, l, true
		}
		cur += l
	}
	return Extent{}, 0, 0, false
}

// CheckInvariants validates the block accounting: every extent within
// bounds, no two extents overlapping, bitmap consistent with extents.
// Used by property tests ("fsck").
func (fs *FsCore) CheckInvariants() error {
	// Iterate inodes in number order: on an inconsistent image the
	// error text names the first offending inode, and that choice must
	// not depend on Go's randomized map order — the message flows into
	// service replies and from there into the deterministic trace.
	// (m3vet's timetaint pass caught the previous map-range version.)
	nums := make([]uint64, 0, len(fs.inodes))
	for n := range fs.inodes {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })

	seen := make(map[int]uint64)
	total := 0
	for _, n := range nums {
		ino := fs.inodes[n]
		alloc := 0
		for _, e := range ino.Extents {
			if e.Start < 0 || e.Blocks <= 0 || e.Start+e.Blocks > fs.TotalBlocks {
				return fmt.Errorf("m3fs: inode %d extent %v out of bounds", ino.Ino, e)
			}
			for b := e.Start; b < e.Start+e.Blocks; b++ {
				if other, dup := seen[b]; dup {
					return fmt.Errorf("m3fs: block %d shared by inodes %d and %d", b, other, ino.Ino)
				}
				seen[b] = ino.Ino
				if !fs.bitmap[b] {
					return fmt.Errorf("m3fs: block %d used by inode %d but free in bitmap", b, ino.Ino)
				}
				total++
			}
			alloc += e.Blocks
		}
		if alloc != ino.AllocBlocks {
			return fmt.Errorf("m3fs: inode %d AllocBlocks=%d but extents hold %d", ino.Ino, ino.AllocBlocks, alloc)
		}
	}
	if total != fs.used {
		return fmt.Errorf("m3fs: bitmap count %d != extent total %d", fs.used, total)
	}
	// Link counts must match the directory entries referencing each
	// inode (the root has no entry but one implicit link).
	refs := make(map[uint64]int)
	//m3vet:allow nodeterminism reference counting is commutative
	for _, ino := range fs.inodes {
		//m3vet:allow nodeterminism reference counting is commutative
		for _, child := range ino.entries {
			refs[child]++
		}
	}
	for _, n := range nums {
		ino := fs.inodes[n]
		want := refs[n]
		if ino == fs.root {
			want++
		}
		if ino.Nlink != want {
			return fmt.Errorf("m3fs: inode %d has nlink %d but %d references", n, ino.Nlink, want)
		}
	}
	return nil
}
