// Package m3 is libm3: the library applications program against. It
// wraps the DTU and the kernel protocol in lightweight abstractions —
// gates, virtual PEs, files, and pipes — "rather than a
// POSIX-compliant environment" (§4.5.2).
package m3

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// Env is the per-program library state: selector allocation, endpoint
// multiplexing, the mount table, and the syscall channel (installed by
// the kernel on EP0/EP1 before the program started).
type Env struct {
	Ctx  *tile.Ctx
	Args []string
	// kern stands in for the boot environment block: the program
	// registry a child VPE's program is loaded from (ChildVPE.start).
	// It is unexported so that a program reaches the kernel only
	// through syscalls.
	kern *core.Kernel

	nextSel   kif.CapSel
	nextLabel uint64
	eps       *epManager
	rbufNext  int
	exitCode  int64

	// sysOut is the stream every syscall wrapper marshals its request
	// into, and sysReply the copy of the last syscall reply, which the
	// stream Syscall returns decodes: one buffer each, reused across
	// syscalls.
	sysOut   kif.OStream
	sysReply []byte

	// stashed call replies that arrived on the call-reply endpoint
	// while waiting for a different label (pipes interleaving with
	// service calls).
	stash map[uint64]*dtu.Message

	// abandoned labels: calls given up on after a deadline. A late
	// reply carrying one is acked immediately instead of stashed, so
	// it cannot leak a ringbuffer slot (lookup/delete only, never
	// walked).
	abandoned map[uint64]bool

	VFS *VFS
}

// NewEnv creates the library state for the program running in ctx. The
// kernel reference stands in for the boot environment block the real
// kernel writes into the PE's memory.
func NewEnv(ctx *tile.Ctx, kern *core.Kernel, args ...string) *Env {
	e := &Env{
		Ctx:       ctx,
		Args:      args,
		kern:      kern,
		nextSel:   1,
		rbufNext:  kif.RBufSpaceBegin,
		stash:     make(map[uint64]*dtu.Message),
		abandoned: make(map[uint64]bool),
	}
	e.eps = newEPManager(e)
	e.VFS = NewVFS(e)
	return e
}

// P returns the program's simulation process.
func (e *Env) P() *sim.Process { return e.Ctx.P }

// DTU returns the PE's data transfer unit.
func (e *Env) DTU() *dtu.DTU { return e.Ctx.PE.DTU }

// AllocSel returns a fresh capability selector.
func (e *Env) AllocSel() kif.CapSel {
	s := e.nextSel
	e.nextSel++
	return s
}

// AllocSels returns the first of n consecutive fresh selectors.
func (e *Env) AllocSels(n uint64) kif.CapSel {
	s := e.nextSel
	e.nextSel += kif.CapSel(n)
	return s
}

func (e *Env) allocLabel() uint64 {
	e.nextLabel++
	return e.nextLabel
}

// allocRBuf reserves SPM space for a receive-gate ringbuffer.
func (e *Env) allocRBuf(size int) (int, error) {
	if e.rbufNext+size > kif.RBufSpaceEnd {
		return 0, fmt.Errorf("m3: out of ringbuffer space (%d + %d > %d)",
			e.rbufNext, size, kif.RBufSpaceEnd)
	}
	a := e.rbufNext
	e.rbufNext += size
	return a, nil
}

// Syscall sends a request to the kernel over the DTU and waits for the
// reply: the paper's replacement for the mode switch. The returned
// stream is positioned after the error code. It decodes the Env's copy
// of the reply, taken before the reply's slot was acked, and stays
// valid until the next syscall.
//
// This is the root of a causal span: the id is allocated here, stamped
// into the DTU's span register, and rides the message header through
// the NoC, the kernel, and any service it calls, back to the reply.
func (e *Env) Syscall(req *kif.OStream) (kif.IStream, error) {
	e.Ctx.Compute(CostSysMarshal)
	d := e.DTU()
	var span obs.SpanID
	var t0 sim.Time
	var op kif.SyscallOp
	tr := e.Ctx.PE.Obs()
	if tr.On() {
		ris := kif.NewIStream(req.Bytes())
		op = ris.Op()
		span, t0 = tr.NewSpan(), e.Ctx.Now()
		tr.Emit(obs.Event{At: t0, PE: int32(e.Ctx.PE.Node), Layer: obs.LApp,
			Kind: obs.EvSyscallStart, Span: span, Arg0: uint64(op)})
		d.StampSpan(span)
	}
	if err := d.Send(e.P(), kif.SyscallEP, req.Bytes(), kif.SysReplyEP, 0); err != nil {
		if tr.On() {
			tr.Emit(obs.Event{At: e.Ctx.Now(), PE: int32(e.Ctx.PE.Node), Layer: obs.LApp,
				Kind: obs.EvSyscallEnd, Span: span, Arg0: uint64(op), Arg1: 1})
		}
		if errors.Is(err, dtu.ErrTimeout) {
			// The DTU gave up after its retry budget (fault injection);
			// surface the protocol-level error so callers can handle it
			// like any other kernel refusal.
			return kif.IStream{}, fmt.Errorf("m3: syscall send: %w", kif.ErrTimeout)
		}
		return kif.IStream{}, fmt.Errorf("m3: syscall send: %w", err)
	}
	msg, _ := d.WaitMsg(e.P(), kif.SysReplyEP)
	e.Ctx.Compute(CostSysUnmarshal)
	if tr.On() {
		now := e.Ctx.Now()
		tr.Emit(obs.Event{At: now, PE: int32(e.Ctx.PE.Node), Layer: obs.LApp,
			Kind: obs.EvSyscallEnd, Span: span, Arg0: uint64(op)})
		tr.Hist(obs.HSyscallRTT).Observe(uint64(now - t0))
	}
	e.sysReply = append(e.sysReply[:0], msg.Data...)
	d.Ack(kif.SysReplyEP, msg)
	is := kif.NewIStream(e.sysReply)
	if kerr := is.ErrCode(); kerr != kif.OK {
		return kif.IStream{}, kerr
	}
	return is, nil
}

// Noop performs the null system call (Figure 3 micro-benchmark).
func (e *Env) Noop() error {
	o := e.sysOut.Reset()
	o.Op(kif.SysNoop)
	_, err := e.Syscall(o)
	return err
}

// Exit reports the program's exit code to the kernel; no reply is
// expected. Program wrappers call it automatically when the program
// function returns.
func (e *Env) Exit(code int64) {
	o := e.sysOut.Reset()
	o.Op(kif.SysExit).I64(code)
	e.Ctx.Compute(CostSysMarshal)
	// Best effort: an exiting program cannot do anything about errors.
	//m3vet:allow errchecklite the program is gone either way; the kernel reaps it via VPE wait
	_ = e.DTU().Send(e.P(), kif.SyscallEP, o.Bytes(), -1, 0)
}

// ReqMem asks the kernel for a DRAM region and returns a memory gate
// for it.
func (e *Env) ReqMem(size int, perms dtu.Perm) (*MemGate, error) {
	return e.reqMem(size, perms, false)
}

// ReqMemStable is ReqMem with the stable flag: a supervised service
// asking for stable memory gets the same pinned region back after
// every restart, contents preserved — the persistence anchor of the
// m3fs journal. For unsupervised callers the flag is a plain ReqMem.
func (e *Env) ReqMemStable(size int, perms dtu.Perm) (*MemGate, error) {
	return e.reqMem(size, perms, true)
}

func (e *Env) reqMem(size int, perms dtu.Perm, stable bool) (*MemGate, error) {
	sel := e.AllocSel()
	o := e.sysOut.Reset()
	o.Op(kif.SysReqMem).Sel(sel).U64(uint64(size)).U64(uint64(perms))
	if stable {
		o.U64(1)
	} else {
		o.U64(0)
	}
	if _, err := e.Syscall(o); err != nil {
		return nil, err
	}
	return e.MemGateAt(sel, size), nil
}

// Revoke undoes all grants of the capability at sel recursively.
func (e *Env) Revoke(sel kif.CapSel) error {
	o := e.sysOut.Reset()
	o.Op(kif.SysRevoke).Sel(sel)
	_, err := e.Syscall(o)
	return err
}

// OpenSess opens a session at the named service. The kernel forwards
// the request to the service, which may deny it.
func (e *Env) OpenSess(name, arg string) (kif.CapSel, error) {
	sel := e.AllocSel()
	o := e.sysOut.Reset()
	o.Op(kif.SysOpenSess).Sel(sel).Str(name).Str(arg)
	if _, err := e.Syscall(o); err != nil {
		return kif.InvalidSel, err
	}
	return sel, nil
}

// ExchangeSess performs a session-scoped capability exchange: obtain
// pulls capCount capabilities chosen by the service into selectors
// starting at caps; delegate pushes the caller's. It returns the
// service's answer arguments.
func (e *Env) ExchangeSess(sess kif.CapSel, obtain bool, caps kif.CapSel, capCount uint64, args []byte) ([]byte, error) {
	o := e.sysOut.Reset()
	o.Op(kif.SysExchangeSess).Sel(sess)
	if obtain {
		o.U64(1)
	} else {
		o.U64(0)
	}
	o.Sel(caps).U64(capCount).Blob(args)
	is, err := e.Syscall(o)
	if err != nil {
		return nil, err
	}
	return is.Blob(), nil
}

// Delegate grants count capabilities starting at mine to the VPE whose
// capability the caller holds at vpeSel, placing them at theirs.
func (e *Env) Delegate(vpeSel, mine, theirs kif.CapSel, count uint64) error {
	o := e.sysOut.Reset()
	o.Op(kif.SysDelegate).Sel(vpeSel).Sel(mine).Sel(theirs).U64(count)
	_, err := e.Syscall(o)
	return err
}

// Obtain pulls count capabilities from the peer VPE's selectors
// starting at theirs into the caller's table at mine.
func (e *Env) Obtain(vpeSel, mine, theirs kif.CapSel, count uint64) error {
	o := e.sysOut.Reset()
	o.Op(kif.SysObtain).Sel(vpeSel).Sel(mine).Sel(theirs).U64(count)
	_, err := e.Syscall(o)
	return err
}

// recvReply waits for a call reply with the given label on the
// call-reply endpoint, stashing replies that belong to other labels
// (e.g. pipe acknowledgements arriving between service calls). It
// returns nil after deadline cycles without the wanted label; zero
// means unbounded (and schedules nothing, preserving the fault-free
// event schedule).
func (e *Env) recvReply(label uint64, deadline sim.Time) *dtu.Message {
	if m, ok := e.stash[label]; ok {
		delete(e.stash, label)
		return m
	}
	d := e.DTU()
	for {
		msg, _ := d.WaitMsgDeadline(e.P(), deadline, kif.CallReplyEP)
		if msg == nil {
			return nil
		}
		if msg.Label == label {
			return msg
		}
		e.stashOrDrop(msg)
	}
}

// DiscardReply marks a call label abandoned: if its reply already
// arrived it is acked now, otherwise it will be acked on arrival.
// Callers use it after recvReply gave up, so a late reply from
// a slow (or restarted) service cannot pin a ringbuffer slot forever.
func (e *Env) DiscardReply(label uint64) {
	if m, ok := e.stash[label]; ok {
		delete(e.stash, label)
		e.DTU().Ack(kif.CallReplyEP, m)
		return
	}
	e.abandoned[label] = true
}

// stashOrDrop files a foreign-label reply: abandoned labels are acked
// straight away, everything else waits in the stash.
func (e *Env) stashOrDrop(msg *dtu.Message) {
	if e.abandoned[msg.Label] {
		delete(e.abandoned, msg.Label)
		e.DTU().Ack(kif.CallReplyEP, msg)
		return
	}
	e.stash[msg.Label] = msg
}

// tryRecvReply returns a stashed or pending reply for label without
// blocking.
func (e *Env) tryRecvReply(label uint64) *dtu.Message {
	if m, ok := e.stash[label]; ok {
		delete(e.stash, label)
		return m
	}
	d := e.DTU()
	for d.HasMsg(kif.CallReplyEP) {
		msg := d.Fetch(kif.CallReplyEP)
		if msg.Label == label {
			return msg
		}
		e.stashOrDrop(msg)
	}
	return nil
}
