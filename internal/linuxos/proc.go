package linuxos

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// OpenFlags mirror the POSIX open flags the workloads need.
type OpenFlags uint32

// Open flags.
const (
	ORead OpenFlags = 1 << iota
	OWrite
	OCreate
	OTrunc
	OAppend
)

// StatInfo is the subset of struct stat the workloads use.
type StatInfo struct {
	Size  int64
	IsDir bool
}

// fdesc is an open description (shared across fork, like the kernel's
// struct file).
type fdesc struct {
	node  *tnode
	pipe  *pipeBuf
	read  bool // pipe read end
	pos   int64
	flags OpenFlags
	refs  int
}

// Open opens path, charging syscall + path resolution costs.
func (pr *Proc) Open(path string, flags OpenFlags) (int, error) {
	prof := &pr.sys.Prof
	node, depth, err := pr.sys.fs.lookup(path)
	if err != nil && flags&OCreate != 0 {
		node, depth, err = pr.sys.fs.create(path)
	}
	pr.charge(KindOS, prof.SyscallCost+prof.FDLookupCost+prof.PathCompCost*sim.Time(depth+1))
	if err != nil {
		return -1, err
	}
	if node.dir && flags&(OWrite|OTrunc) != 0 {
		return -1, errors.New("linuxos: is a directory")
	}
	if flags&OTrunc != 0 {
		node.data = node.data[:0]
	}
	f := &fdesc{node: node, flags: flags, refs: 1}
	if flags&OAppend != 0 {
		f.pos = int64(len(node.data))
	}
	fd := pr.nextFD
	pr.nextFD++
	pr.fds[fd] = f
	return fd, nil
}

func (pr *Proc) fd(fd int) (*fdesc, error) {
	f, ok := pr.fds[fd]
	if !ok {
		return nil, fmt.Errorf("linuxos: bad fd %d", fd)
	}
	return f, nil
}

// Read reads up to len(buf) bytes: one syscall, fd lookup, page-cache
// operations per touched block, and the copy to user space.
func (pr *Proc) Read(fd int, buf []byte) (int, error) {
	prof := &pr.sys.Prof
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	if f.pipe != nil {
		return pr.pipeRead(f, buf)
	}
	pr.charge(KindOS, prof.SyscallCost+prof.FDLookupCost)
	if f.node == nil || f.node.dir {
		return 0, errors.New("linuxos: read on directory")
	}
	if f.flags&ORead == 0 {
		return 0, errors.New("linuxos: fd not readable")
	}
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(buf, f.node.data[f.pos:])
	blocks := (n + tmpfsBlock - 1) / tmpfsBlock
	pr.charge(KindOS, prof.PageCacheCost*sim.Time(blocks))
	pr.charge(KindXfer, pr.sys.copyCost(n))
	f.pos += int64(n)
	return n, nil
}

// Write appends/stores bytes: syscall, fd lookup, page-cache work, the
// zero-fill of freshly allocated blocks, and the copy from user space.
func (pr *Proc) Write(fd int, buf []byte) (int, error) {
	prof := &pr.sys.Prof
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	if f.pipe != nil {
		return pr.pipeWrite(f, buf)
	}
	pr.charge(KindOS, prof.SyscallCost+prof.FDLookupCost)
	if f.node == nil || f.node.dir {
		return 0, errors.New("linuxos: write on directory")
	}
	if f.flags&OWrite == 0 {
		return 0, errors.New("linuxos: fd not writable")
	}
	end := f.pos + int64(len(buf))
	grow := end - int64(len(f.node.data))
	if grow > 0 {
		f.node.data = append(f.node.data, make([]byte, grow)...)
		// Linux zeroes each freshly handed-out block (§5.4).
		pr.charge(KindXfer, sim.Time(float64(grow)*prof.ZeroFillPerByte))
	}
	copy(f.node.data[f.pos:], buf)
	blocks := (len(buf) + tmpfsBlock - 1) / tmpfsBlock
	pr.charge(KindOS, prof.PageCacheCost*sim.Time(blocks))
	pr.charge(KindXfer, pr.sys.copyCost(len(buf)))
	f.pos = end
	return len(buf), nil
}

// Sendfile copies n bytes from src to dst inside the kernel (tar and
// untar use sendfile, §5.6: "Linux does not suffer from many system
// calls in this case").
func (pr *Proc) Sendfile(dst, src int, n int) (int, error) {
	prof := &pr.sys.Prof
	fs, err := pr.fd(src)
	if err != nil {
		return 0, err
	}
	fd, err := pr.fd(dst)
	if err != nil {
		return 0, err
	}
	pr.charge(KindOS, prof.SyscallCost+2*prof.FDLookupCost)
	if fs.node == nil || fd.node == nil {
		return 0, errors.New("linuxos: sendfile needs regular files")
	}
	avail := int64(len(fs.node.data)) - fs.pos
	if int64(n) > avail {
		n = int(avail)
	}
	if n <= 0 {
		return 0, io.EOF
	}
	end := fd.pos + int64(n)
	if grow := end - int64(len(fd.node.data)); grow > 0 {
		fd.node.data = append(fd.node.data, make([]byte, grow)...)
		pr.charge(KindXfer, sim.Time(float64(grow)*prof.ZeroFillPerByte))
	}
	copy(fd.node.data[fd.pos:], fs.node.data[fs.pos:fs.pos+int64(n)])
	blocks := (n + tmpfsBlock - 1) / tmpfsBlock
	pr.charge(KindOS, prof.PageCacheCost*sim.Time(2*blocks))
	// One in-kernel copy instead of two user-space crossings.
	pr.charge(KindXfer, pr.sys.copyCost(n))
	fs.pos += int64(n)
	fd.pos = end
	return n, nil
}

// Seek adjusts the file offset.
func (pr *Proc) Seek(fd int, off int64, whence int) (int64, error) {
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	pr.charge(KindOS, pr.sys.Prof.SyscallCost)
	switch whence {
	case io.SeekStart:
		f.pos = off
	case io.SeekCurrent:
		f.pos += off
	case io.SeekEnd:
		f.pos = int64(len(f.node.data)) + off
	default:
		return 0, errors.New("linuxos: bad whence")
	}
	if f.pos < 0 {
		f.pos = 0
	}
	return f.pos, nil
}

// Close drops the descriptor.
func (pr *Proc) Close(fd int) error {
	f, err := pr.fd(fd)
	if err != nil {
		return err
	}
	pr.charge(KindOS, pr.sys.Prof.SyscallCost)
	delete(pr.fds, fd)
	f.refs--
	if f.pipe != nil && f.refs == 0 {
		f.pipe.closeEnd(f.read)
	}
	return nil
}

// Stat resolves path and fills in metadata; well optimized on Linux
// (§5.6).
func (pr *Proc) Stat(path string) (StatInfo, error) {
	prof := &pr.sys.Prof
	node, depth, err := pr.sys.fs.lookup(path)
	pr.charge(KindOS, prof.SyscallCost+prof.StatCost+prof.PathCompCost*sim.Time(depth))
	if err != nil {
		return StatInfo{}, err
	}
	return StatInfo{Size: int64(len(node.data)), IsDir: node.dir}, nil
}

// Mkdir creates a directory.
func (pr *Proc) Mkdir(path string) error {
	prof := &pr.sys.Prof
	depth, err := pr.sys.fs.mkdir(path)
	pr.charge(KindOS, prof.SyscallCost+prof.StatCost+prof.PathCompCost*sim.Time(depth+1))
	return err
}

// Unlink removes a file or empty directory.
func (pr *Proc) Unlink(path string) error {
	prof := &pr.sys.Prof
	depth, err := pr.sys.fs.unlink(path)
	pr.charge(KindOS, prof.SyscallCost+prof.StatCost+prof.PathCompCost*sim.Time(depth+1))
	return err
}

// Link creates a hard link (both names share the inode).
func (pr *Proc) Link(oldPath, newPath string) error {
	prof := &pr.sys.Prof
	depth, err := pr.sys.fs.link(oldPath, newPath)
	pr.charge(KindOS, prof.SyscallCost+prof.StatCost+prof.PathCompCost*sim.Time(depth+1))
	return err
}

// Rename moves a directory entry.
func (pr *Proc) Rename(oldPath, newPath string) error {
	prof := &pr.sys.Prof
	depth, err := pr.sys.fs.rename(oldPath, newPath)
	pr.charge(KindOS, prof.SyscallCost+prof.StatCost+prof.PathCompCost*sim.Time(depth+1))
	return err
}

// ReadDir returns sorted entry names (getdents).
func (pr *Proc) ReadDir(path string) ([]string, error) {
	prof := &pr.sys.Prof
	names, _, err := pr.sys.fs.readdir(path)
	calls := len(names)/8 + 1 // one getdents per chunk of entries
	pr.charge(KindOS, prof.SyscallCost*sim.Time(calls)+prof.FDLookupCost)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// IsDirEntry reports whether path/name is a directory (stat helper for
// find).
func (pr *Proc) IsDirEntry(dir, name string) bool {
	st, err := pr.Stat(dir + "/" + name)
	return err == nil && st.IsDir
}
