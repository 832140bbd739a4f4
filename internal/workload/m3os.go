package workload

import (
	"errors"
	"fmt"

	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// M3OS adapts a libm3 environment to the workload interface.
type M3OS struct {
	Env *m3.Env
	FS  *m3fs.Client
	// Prefix is prepended to every path, giving each benchmark
	// instance its own namespace in the scalability experiment.
	Prefix string

	// appAcc accumulates application compute cycles across this OS
	// handle and its children, for the evaluation's stacked bars.
	appAcc *uint64

	// lastPrefix, lastRel and lastFull memoize the last prefixed path:
	// callers often name one path in consecutive calls (a stat, then an
	// open), and the join would otherwise build the same string anew.
	lastPrefix, lastRel, lastFull string
}

var _ OS = (*M3OS)(nil)

// NewM3OS mounts m3fs at "/" and returns the adapter.
func NewM3OS(env *m3.Env) (*M3OS, error) {
	c, err := m3fs.MountAt(env, "/", "")
	if err != nil {
		return nil, err
	}
	return &M3OS{Env: env, FS: c, appAcc: new(uint64)}, nil
}

// AppCycles returns the accumulated application compute cycles.
func (o *M3OS) AppCycles() uint64 { return *o.appAcc }

// path prepends the instance's prefix to p.
func (o *M3OS) path(p string) string {
	if o.Prefix == "" {
		return p
	}
	if p != o.lastRel || o.Prefix != o.lastPrefix {
		o.lastPrefix, o.lastRel, o.lastFull = o.Prefix, p, o.Prefix+p
	}
	return o.lastFull
}

// Compute models application work.
func (o *M3OS) Compute(cycles uint64) {
	*o.appAcc += cycles
	o.Env.Ctx.Compute(sim.Time(cycles))
}

// Open opens path through the VFS.
func (o *M3OS) Open(path string, flags OpenFlags) (File, error) {
	var mf m3.OpenFlags
	if flags&Read != 0 {
		mf |= m3.OpenRead
	}
	if flags&Write != 0 {
		mf |= m3.OpenWrite
	}
	if flags&Create != 0 {
		mf |= m3.OpenCreate
	}
	if flags&Trunc != 0 {
		mf |= m3.OpenTrunc
	}
	f, err := o.Env.VFS.Open(o.path(path), mf)
	if err != nil {
		return nil, err
	}
	return m3File{f}, nil
}

// Stat returns file metadata.
func (o *M3OS) Stat(path string) (Stat, error) {
	st, err := o.Env.VFS.Stat(o.path(path))
	if err != nil {
		return Stat{}, err
	}
	return Stat{Size: st.Size, IsDir: st.IsDir}, nil
}

// Mkdir creates a directory.
func (o *M3OS) Mkdir(path string) error { return o.Env.VFS.Mkdir(o.path(path)) }

// Unlink removes a file.
func (o *M3OS) Unlink(path string) error { return o.Env.VFS.Unlink(o.path(path)) }

// ReadDir lists entry names.
func (o *M3OS) ReadDir(path string) ([]string, error) {
	ents, err := o.Env.VFS.ReadDir(o.path(path))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, nil
}

// CopyRange: M3 has no in-kernel copy path; callers use read+write.
func (o *M3OS) CopyRange(dst, src File, n int) (int, bool, error) { return 0, false, nil }

// CoreType returns the PE's core type.
func (o *M3OS) CoreType() string { return string(o.Env.Ctx.PE.Type) }

// Selectors at which pipe capabilities are passed between parent and
// child VPEs.
const (
	pipeSGateSel = 100
	pipeWMemSel  = 101
	fsSessSel    = 102
	fsSGateSel   = 103
)

// shareFS delegates the parent's m3fs session and request gate to the
// child, the libm3 analogue of a forked child inheriting the mount.
func (o *M3OS) shareFS(vpe *m3.ChildVPE) error {
	if err := vpe.Delegate(o.FS.SessSel(), fsSessSel, 1); err != nil {
		return err
	}
	return vpe.Delegate(o.FS.SGateSel(), fsSGateSel, 1)
}

func (o *M3OS) childM3OS(child *m3.Env) *M3OS {
	c := m3fs.ClientFromCaps(child, fsSessSel, fsSGateSel)
	_ = child.VFS.Mount("/", c)
	return &M3OS{Env: child, FS: c, Prefix: o.Prefix, appAcc: o.appAcc}
}

// PipeFromChild creates the pipe locally (the parent reads, so it owns
// the receive gate), starts the child VPE with VPE.Run, and delegates
// the writer capabilities plus the filesystem session.
func (o *M3OS) PipeFromChild(name string, childFn func(os OS, w File)) (File, func(), error) {
	pipe, err := m3.NewPipe(o.Env, 0)
	if err != nil {
		return nil, nil, err
	}
	vpe, err := o.Env.NewVPE(name, "")
	if err != nil {
		return nil, nil, err
	}
	sg, wm := pipe.WriterSels()
	if err := vpe.Delegate(sg, pipeSGateSel, 1); err != nil {
		return nil, nil, err
	}
	if err := vpe.Delegate(wm, pipeWMemSel, 1); err != nil {
		return nil, nil, err
	}
	if err := o.shareFS(vpe); err != nil {
		return nil, nil, err
	}
	size := pipe.Size()
	if err := vpe.Run(func(child *m3.Env) {
		cos := o.childM3OS(child)
		w := m3.OpenPipeWriter(child, pipeSGateSel, pipeWMemSel, size)
		childFn(cos, pipeWriterFile{w})
		_ = w.Close()
	}); err != nil {
		return nil, nil, err
	}
	wait := func() {
		_, _ = vpe.Wait()
		_ = vpe.Revoke()
	}
	return pipeReaderFile{pipe}, wait, nil
}

// PipeToChild starts the child VPE (optionally on a specific core
// type); the child creates the pipe — it reads, so it must own the
// receive gate — and the parent obtains the writer capabilities from
// the child's first, deterministic selectors.
func (o *M3OS) PipeToChild(name, peType string, childFn func(os OS, r File)) (File, func(), error) {
	vpe, err := o.Env.NewVPE(name, tile.CoreType(peType))
	if err != nil {
		return nil, nil, err
	}
	if err := o.shareFS(vpe); err != nil {
		return nil, nil, err
	}
	if err := vpe.Run(func(child *m3.Env) {
		// NewPipe allocates selectors 1..4: rgate, ringbuffer,
		// sgate(3), writer memory gate(4).
		pipe, perr := m3.NewPipe(child, 0)
		if perr != nil {
			child.SetExit(1)
			return
		}
		cos := o.childM3OS(child)
		childFn(cos, pipeReaderFile{pipe})
	}); err != nil {
		return nil, nil, err
	}
	// Obtain the writer capabilities once the child created them.
	mine := o.Env.AllocSels(2)
	for attempt := 0; ; attempt++ {
		err := vpe.Obtain(mine, 3, 2)
		if err == nil {
			break
		}
		if errors.Is(err, kif.ErrNoSuchCap) && attempt < 1000 {
			o.Env.P().Sleep(500)
			continue
		}
		return nil, nil, fmt.Errorf("workload: obtain pipe caps: %w", err)
	}
	w := m3.OpenPipeWriter(o.Env, mine, mine+1, m3.DefaultPipeSize)
	wait := func() {
		_, _ = vpe.Wait()
		_ = vpe.Revoke()
	}
	return pipeWriterFile{w}, wait, nil
}

// m3File adapts m3.File.
type m3File struct{ f m3.File }

func (f m3File) Read(b []byte) (int, error)  { return f.f.Read(b) }
func (f m3File) Write(b []byte) (int, error) { return f.f.Write(b) }
func (f m3File) Close() error                { return f.f.Close() }
func (f m3File) Seek(off int64, whence int) (int64, error) {
	return f.f.Seek(off, whence)
}

// pipeReaderFile adapts m3.PipeReader.
type pipeReaderFile struct{ p *m3.PipeReader }

func (f pipeReaderFile) Read(b []byte) (int, error)  { return f.p.Read(b) }
func (f pipeReaderFile) Write(b []byte) (int, error) { return 0, errors.New("pipe read end") }
func (f pipeReaderFile) Close() error                { return nil }

// pipeWriterFile adapts m3.PipeWriter.
type pipeWriterFile struct{ w *m3.PipeWriter }

func (f pipeWriterFile) Read(b []byte) (int, error)  { return 0, errors.New("pipe write end") }
func (f pipeWriterFile) Write(b []byte) (int, error) { return f.w.Write(b) }
func (f pipeWriterFile) Close() error                { return f.w.Close() }
