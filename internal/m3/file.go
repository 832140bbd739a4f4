package m3

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// OpenFlags controls Open behaviour.
type OpenFlags uint32

// Open flags.
const (
	OpenRead OpenFlags = 1 << iota
	OpenWrite
	OpenCreate
	OpenTrunc
	OpenAppend
	OpenRW = OpenRead | OpenWrite
)

// Stat describes a file or directory.
type Stat struct {
	Size    int64
	IsDir   bool
	Ino     uint64
	Extents int
	// Links is the hard-link count (0 when the filesystem does not
	// track links).
	Links int
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// File is an open file handle. Read and Write return io.EOF at end of
// file like the standard library.
type File interface {
	Read(buf []byte) (int, error)
	Write(buf []byte) (int, error)
	Seek(off int64, whence int) (int64, error)
	Close() error
	Stat() (Stat, error)
}

// FileSystem is the interface mounted into the VFS; m3fs's client
// implements it, as does the pipe filesystem.
type FileSystem interface {
	Open(path string, flags OpenFlags) (File, error)
	Stat(path string) (Stat, error)
	Mkdir(path string) error
	Unlink(path string) error
	ReadDir(path string) ([]DirEntry, error)
}

// LinkerFS is implemented by filesystems that support hard links and
// renames (m3fs does; the pipe filesystem does not).
type LinkerFS interface {
	Link(oldPath, newPath string) error
	Rename(oldPath, newPath string) error
}

// ErrNotMounted is returned for paths outside every mount point.
var ErrNotMounted = errors.New("m3: no filesystem mounted for path")

// VFS is libm3's virtual filesystem: a mount table that forwards
// POSIX-like operations to mounted filesystems (§4.5.8). It makes it
// transparent for applications whether they access a pipe or a file.
type VFS struct {
	env    *Env
	mounts []mount
}

type mount struct {
	prefix string
	fs     FileSystem
}

// NewVFS returns an empty mount table.
func NewVFS(e *Env) *VFS { return &VFS{env: e} }

// Mount attaches fs at prefix (e.g. "/"). Longest prefix wins on
// resolution.
func (v *VFS) Mount(prefix string, fs FileSystem) error {
	prefix = cleanPath(prefix)
	for _, m := range v.mounts {
		if m.prefix == prefix {
			return fmt.Errorf("m3: %s already mounted", prefix)
		}
	}
	v.mounts = append(v.mounts, mount{prefix: prefix, fs: fs})
	return nil
}

// resolve finds the filesystem responsible for path and rewrites the
// path relative to the mount point.
func (v *VFS) resolve(path string) (FileSystem, string, error) {
	path = cleanPath(path)
	v.env.Ctx.Compute(CostVFSComponent * sim.Time(countComponents(path)))
	best := -1
	for i, m := range v.mounts {
		if strings.HasPrefix(path, m.prefix) || m.prefix == "/" {
			if best < 0 || len(m.prefix) > len(v.mounts[best].prefix) {
				best = i
			}
		}
	}
	if best < 0 {
		return nil, "", fmt.Errorf("%w: %s", ErrNotMounted, path)
	}
	// The relative path is a slice of the clean path: all of it under
	// "/", the rest after the prefix elsewhere. Only a prefix that ends
	// mid-component needs a new string.
	rel := path
	if prefix := v.mounts[best].prefix; prefix != "/" {
		rel = path[len(prefix):]
	}
	if !strings.HasPrefix(rel, "/") {
		rel = "/" + rel
	}
	return v.mounts[best].fs, rel, nil
}

// Open opens the file at path.
func (v *VFS) Open(path string, flags OpenFlags) (File, error) {
	fs, rel, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.Open(rel, flags)
}

// Stat returns metadata for path.
func (v *VFS) Stat(path string) (Stat, error) {
	fs, rel, err := v.resolve(path)
	if err != nil {
		return Stat{}, err
	}
	return fs.Stat(rel)
}

// Mkdir creates a directory.
func (v *VFS) Mkdir(path string) error {
	fs, rel, err := v.resolve(path)
	if err != nil {
		return err
	}
	return fs.Mkdir(rel)
}

// Unlink removes a file.
func (v *VFS) Unlink(path string) error {
	fs, rel, err := v.resolve(path)
	if err != nil {
		return err
	}
	return fs.Unlink(rel)
}

// Link creates a hard link; both paths must live on the same mounted
// filesystem and it must support links.
func (v *VFS) Link(oldPath, newPath string) error {
	return v.twoPathOp(oldPath, newPath, func(l LinkerFS, o, n string) error {
		return l.Link(o, n)
	})
}

// Rename moves an entry; both paths must live on the same mounted
// filesystem and it must support renames.
func (v *VFS) Rename(oldPath, newPath string) error {
	return v.twoPathOp(oldPath, newPath, func(l LinkerFS, o, n string) error {
		return l.Rename(o, n)
	})
}

func (v *VFS) twoPathOp(oldPath, newPath string, op func(LinkerFS, string, string) error) error {
	fs1, rel1, err := v.resolve(oldPath)
	if err != nil {
		return err
	}
	fs2, rel2, err := v.resolve(newPath)
	if err != nil {
		return err
	}
	if fs1 != fs2 {
		return errors.New("m3: cross-filesystem link/rename")
	}
	l, ok := fs1.(LinkerFS)
	if !ok {
		return errors.New("m3: filesystem does not support links")
	}
	return op(l, rel1, rel2)
}

// ReadDir lists a directory.
func (v *VFS) ReadDir(path string) ([]DirEntry, error) {
	fs, rel, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.ReadDir(rel)
}

// ReadFile reads a whole file through the VFS (convenience for tests
// and examples).
func (v *VFS) ReadFile(path string) ([]byte, error) {
	f, err := v.Open(path, OpenRead)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, rerr := f.Read(buf)
		out = append(out, buf[:n]...)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return out, nil
			}
			return out, rerr
		}
	}
}

// WriteFile creates/truncates path with the given contents.
func (v *VFS) WriteFile(path string, data []byte) error {
	f, err := v.Open(path, OpenWrite|OpenCreate|OpenTrunc)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n := len(data)
		if n > 4096 {
			n = 4096
		}
		if _, werr := f.Write(data[:n]); werr != nil {
			_ = f.Close()
			return werr
		}
		data = data[n:]
	}
	return f.Close()
}

func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	for strings.Contains(p, "//") {
		p = strings.ReplaceAll(p, "//", "/")
	}
	if len(p) > 1 {
		p = strings.TrimSuffix(p, "/")
	}
	return p
}

// countComponents counts p's non-empty "/"-separated components
// (at least 1).
func countComponents(p string) uint64 {
	n := uint64(0)
	for i := 0; i < len(p); i++ {
		if p[i] != '/' && (i == 0 || p[i-1] == '/') {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// Whence values for Seek, matching the io package.
const (
	SeekStart   = io.SeekStart
	SeekCurrent = io.SeekCurrent
	SeekEnd     = io.SeekEnd
)
