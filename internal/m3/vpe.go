package m3

import (
	"fmt"

	"repro/internal/kif"
	"repro/internal/tile"
)

// progRegistry maps executable paths to program entry points: the
// stand-in for compiled binaries. Exec still transfers the file's
// bytes to the target PE for timing; the registry supplies the Go
// function to run.
var progRegistry = map[string]func(*Env){}

// RegisterProgram installs an executable under path. Typically done
// from init functions of example/workload packages.
func RegisterProgram(path string, main func(*Env)) {
	progRegistry[path] = main
}

// LookupProgram returns a registered program entry point.
func LookupProgram(path string) (func(*Env), bool) {
	f, ok := progRegistry[path]
	return f, ok
}

// ChildVPE is the application-side handle for a created VPE: a VPE
// capability, a memory gate for the target PE's local memory (used for
// application loading), and the PE id for information.
type ChildVPE struct {
	env    *Env
	Sel    kif.CapSel
	MemSel kif.CapSel
	VPEID  uint64
	PEID   int

	mem     *MemGate
	started bool
}

// NewVPE asks the kernel for an unused PE of the given type ("" for
// any) and returns the handle. The requester receives a memory gate
// providing complete control of the PE (§4.5.5).
func (e *Env) NewVPE(name string, peType tile.CoreType) (*ChildVPE, error) {
	vpeSel, memSel := e.AllocSel(), e.AllocSel()
	o := e.sysOut.Reset()
	o.Op(kif.SysCreateVPE).Sel(vpeSel).Sel(memSel).Str(name).Str(string(peType))
	is, err := e.Syscall(o)
	if err != nil {
		return nil, err
	}
	vpeID := is.U64()
	peID := is.U64()
	return &ChildVPE{
		env: e, Sel: vpeSel, MemSel: memSel, VPEID: vpeID, PEID: int(peID),
		mem: e.MemGateAt(memSel, 64<<10),
	}, nil
}

// Mem returns the memory gate for the child PE's local memory.
func (v *ChildVPE) Mem() *MemGate { return v.mem }

// Run clones the calling program onto the child PE and executes fn
// there, like a fork followed by running a lambda (§4.5.5): libm3
// transfers code, static data, the used heap, and the stack to the
// same addresses in the other PE, then the kernel starts it. The
// function's captures travel with the image; like the paper's C++
// lambdas, the child must not touch the parent's memory directly but
// communicate through gates.
func (v *ChildVPE) Run(fn func(child *Env)) error {
	if err := v.loadImage(CloneImageSize); err != nil {
		return err
	}
	return v.start(fn)
}

// Exec loads the executable at path from the filesystem onto the PE
// and runs it (§4.5.5). The file's bytes are read through the caller's
// VFS and written to the child PE, so exec pays for the real transfer.
func (v *ChildVPE) Exec(path string, args ...string) error {
	prog, ok := LookupProgram(path)
	if !ok {
		return fmt.Errorf("m3: exec %s: no such program", path)
	}
	f, err := v.env.VFS.Open(path, OpenRead)
	if err != nil {
		return fmt.Errorf("m3: exec %s: %w", path, err)
	}
	size := 0
	buf := make([]byte, 4096)
	pos := 0
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			if werr := v.mem.Write(buf[:n], pos); werr != nil {
				_ = f.Close()
				return werr
			}
			pos += n
			size += n
		}
		if rerr != nil {
			break
		}
	}
	if cerr := f.Close(); cerr != nil {
		return cerr
	}
	if size == 0 {
		return fmt.Errorf("m3: exec %s: empty executable", path)
	}
	return v.start(func(child *Env) {
		child.Args = args
		prog(child)
	})
}

// loadImage transfers an image of the given size to the child PE in
// SPM-buffer-sized chunks.
func (v *ChildVPE) loadImage(size int) error {
	chunk := make([]byte, 4096)
	for off := 0; off < size; off += len(chunk) {
		n := len(chunk)
		if size-off < n {
			n = size - off
		}
		if err := v.mem.Write(chunk[:n], off); err != nil {
			return err
		}
	}
	return nil
}

// start registers the wrapped program and issues the vpestart syscall.
func (v *ChildVPE) start(fn func(child *Env)) error {
	if v.started {
		return fmt.Errorf("m3: VPE already started")
	}
	kern := v.env.kern
	progID := kern.Progs.Register(func(ctx *tile.Ctx) {
		child := NewEnv(ctx, kern)
		fn(child)
		child.Exit(child.exitCode)
	})
	o := v.env.sysOut.Reset()
	o.Op(kif.SysVPEStart).Sel(v.Sel).U64(progID)
	if _, err := v.env.Syscall(o); err != nil {
		return err
	}
	v.started = true
	return nil
}

// Wait blocks until the child exited and returns its exit code
// (§4.5.5). The kernel defers the reply until then.
func (v *ChildVPE) Wait() (int64, error) {
	o := v.env.sysOut.Reset()
	o.Op(kif.SysVPEWait).Sel(v.Sel)
	is, err := v.env.Syscall(o)
	if err != nil {
		return 0, err
	}
	return is.I64(), nil
}

// Delegate grants count of the caller's capabilities starting at mine
// to the child, at the child's selectors starting at theirs.
func (v *ChildVPE) Delegate(mine, theirs kif.CapSel, count uint64) error {
	return v.env.Delegate(v.Sel, mine, theirs, count)
}

// Obtain pulls count capabilities from the child's table starting at
// theirs into the caller's at mine.
func (v *ChildVPE) Obtain(mine, theirs kif.CapSel, count uint64) error {
	return v.env.Obtain(v.Sel, mine, theirs, count)
}

// Revoke revokes the VPE capability, resetting the PE and making it
// available again.
func (v *ChildVPE) Revoke() error { return v.env.Revoke(v.Sel) }

// SetExit stores the code the wrapper reports to the kernel when the
// program function returns.
func (e *Env) SetExit(code int64) { e.exitCode = code }
