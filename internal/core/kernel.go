package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// Program is the unit of execution the kernel can start on a PE. The
// program table stands in for the executable store: real M3 transfers
// binaries; we transfer the same bytes for timing but dispatch into Go
// functions.
type Program func(c *tile.Ctx)

// ProgTable maps program ids (carried in vpestart system calls) to
// program functions. It is host-side state shared by kernel and libm3.
type ProgTable struct {
	progs map[uint64]Program
	next  uint64
}

// Register stores f and returns its id.
func (t *ProgTable) Register(f Program) uint64 {
	if t.progs == nil {
		t.progs = make(map[uint64]Program)
	}
	t.next++
	t.progs[t.next] = f
	return t.next
}

// Get returns the program with the given id, or nil.
func (t *ProgTable) Get(id uint64) Program { return t.progs[id] }

// Stats counts kernel activity.
type Stats struct {
	Syscalls     map[kif.SyscallOp]uint64
	ServiceCalls uint64

	// Fault-tolerance counters, nonzero only under fault injection:
	// syscall replies abandoned after the DTU retry budget (the client
	// died or its reply endpoint is unreachable), endpoint
	// invalidations that timed out (any drop's, not only a reap's), and
	// VPEs reaped by the death watchdog.
	RepliesDropped      uint64
	FailedInvalidations uint64
	VPEsReaped          uint64

	// Recovery counters: kernel→service calls that hit the armed
	// deadline, and supervised services respawned after a reap.
	ServiceTimeouts uint64
	ServiceRestarts uint64

	// CallsRefused counts calls the service DTU refused at its
	// admission watermark (docs/OVERLOAD.md).
	CallsRefused uint64
}

// SyscallCount is one (opcode, count) pair of the syscall counter map.
type SyscallCount struct {
	Op    kif.SyscallOp
	Count uint64
}

// SortedSyscalls returns the syscall counters in opcode-name order —
// the one sanctioned way to report the map, so no output path walks it
// in randomized map order.
func (s *Stats) SortedSyscalls() []SyscallCount {
	ops := make([]kif.SyscallOp, 0, len(s.Syscalls))
	for op := range s.Syscalls {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	out := make([]SyscallCount, len(ops))
	for i, op := range ops {
		out[i] = SyscallCount{Op: op, Count: s.Syscalls[op]}
	}
	return out
}

// Metric names the kernel registers (m3vet: obsname).
const (
	// MSyscalls counts handled syscalls: index -1 is the total, index
	// op the per-opcode count.
	MSyscalls = "kernel_syscalls_total"
	// MEPReconfigs counts remote endpoint configurations the kernel
	// issued (gate activations, std EP installs, invalidations).
	MEPReconfigs = "kernel_ep_reconfigs_total"
	// MCapRevocations counts dropped capabilities (explicit revokes,
	// VPE teardown, death-watchdog reaps).
	MCapRevocations = "kernel_cap_revocations_total"
	// MSupervisorRestarts counts supervised service respawns.
	MSupervisorRestarts = "kernel_supervisor_restarts_total"
)

// Kernel is the M3 kernel instance, bound to a dedicated kernel PE.
type Kernel struct {
	Plat  *tile.Platform
	PE    *tile.PE
	Progs *ProgTable

	// cpu serializes kernel software: the dispatcher and helper
	// activities share the single kernel core.
	cpu *sim.Resource

	vpes     map[uint64]*VPE
	nextVPE  uint64
	peUsed   []bool
	services map[string]*ServiceObj
	dram     *allocator

	pendingServ map[uint64]*servPending
	nextServOp  uint64
	nextSrvEP   int

	// out is the stream replyErr marshals into, and servReply the copy
	// of the last service reply callService decodes from. Kernel
	// helpers share them safely: each is filled and consumed without
	// the kernel yielding in between.
	out       kif.OStream
	servReply []byte

	// srvEpochs counts registrations per service name (lookup only,
	// never walked) so every re-registration gets a fresh epoch.
	srvEpochs map[string]uint64

	// supervised maps the VPE id of a supervised service's current
	// incarnation to its restart record (lookup only, never walked).
	supervised map[uint64]*supervised

	inits  []initAction
	booted bool

	// actSig wakes kernel helper activities that wait for a receive
	// gate to be activated or for a VPE to die (deferred send-gate
	// activation, §4.5.4). A kernel-wide signal keeps the wakeup order
	// deterministic and lets VPE teardown unblock every helper that
	// waits on a gate owned by a dead VPE.
	actSig *sim.Signal

	// Cached metric handles (nil-safe, inert without a tracer).
	mSyscalls           *obs.Counter
	mEPReconfigs        *obs.Counter
	mCapRevocations     *obs.Counter
	mSupervisorRestarts *obs.Counter

	Stats Stats
}

type servPending struct {
	sig *sim.Signal
	msg *dtu.Message
}

type initAction struct {
	vpe  *VPE
	prog Program
}

// Boot creates the kernel on the given PE, configures its receive
// endpoints, and schedules the boot process that downgrades all
// application PEs (NoC-level isolation) and then serves system calls
// forever. Init VPEs queued with StartInit before the engine runs are
// started by the boot process.
func Boot(plat *tile.Platform, kernelPE int) *Kernel {
	kpe := plat.PEs[kernelPE]
	k := &Kernel{
		Plat:        plat,
		PE:          kpe,
		Progs:       &ProgTable{},
		cpu:         sim.NewResource(plat.Eng, 1),
		vpes:        make(map[uint64]*VPE),
		peUsed:      make([]bool, len(plat.PEs)),
		services:    make(map[string]*ServiceObj),
		dram:        newAllocator(0, plat.DRAM.Size()),
		pendingServ: make(map[uint64]*servPending),
		nextSrvEP:   kif.KFirstSrvEP,
		srvEpochs:   make(map[string]uint64),
		supervised:  make(map[uint64]*supervised),
		actSig:      sim.NewSignal(plat.Eng),
	}
	k.peUsed[kernelPE] = true
	mustConfig(kpe.DTU.Configure(kif.KSyscallEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.KSyscallBufAddr,
		SlotSize: kif.KSyscallSlotSize, SlotCount: kif.KSyscallSlots,
	}))
	mustConfig(kpe.DTU.Configure(kif.KServReplyEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.KServReplyBufAddr,
		SlotSize: kif.KServReplySlotSize, SlotCount: kif.KServReplySlots,
	}))
	k.Stats.Syscalls = make(map[kif.SyscallOp]uint64)
	if tr := plat.Obs; tr.On() {
		m := tr.Metrics()
		k.mSyscalls = m.Counter(MSyscalls, -1)
		k.mEPReconfigs = m.Counter(MEPReconfigs, -1)
		k.mCapRevocations = m.Counter(MCapRevocations, -1)
		k.mSupervisorRestarts = m.Counter(MSupervisorRestarts, -1)
	}
	kpe.Start("kernel", k.run)
	return k
}

func mustConfig(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: kernel endpoint config failed: %v", err))
	}
}

// configRemote is the kernel's single choke point for remote endpoint
// configuration: every activation, std-EP install, and invalidation
// goes through it so the reconfiguration count is complete.
func (k *Kernel) configRemote(p *sim.Process, node noc.NodeID, ep int, cfg dtu.Endpoint) error {
	if tr := k.Plat.Obs; tr.On() {
		k.mEPReconfigs.Inc()
	}
	return k.PE.DTU.ConfigureRemote(p, node, ep, cfg)
}

// StartInit queues a VPE that the kernel starts during boot, before
// serving system calls: the way services (m3fs) and the first
// application enter the system. It must be called before the engine
// runs. It returns the created VPE.
func (k *Kernel) StartInit(name string, peType tile.CoreType, prog Program) (*VPE, error) {
	if k.booted {
		return nil, errors.New("core: StartInit after boot")
	}
	pe := k.allocPE(peType)
	if pe == nil {
		return nil, errors.New("core: no free PE for init VPE")
	}
	vpe := k.newVPE(name, pe)
	k.inits = append(k.inits, initAction{vpe: vpe, prog: prog})
	return vpe, nil
}

// VPEByID returns a VPE by id (for tests and the harness).
func (k *Kernel) VPEByID(id uint64) *VPE { return k.vpes[id] }

// VPEs returns all VPEs in id order (for the death watchdog and the
// chaos harness; the order is part of the deterministic schedule).
func (k *Kernel) VPEs() []*VPE {
	ids := make([]uint64, 0, len(k.vpes))
	for id := range k.vpes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vpes := make([]*VPE, 0, len(ids))
	for _, id := range ids {
		vpes = append(vpes, k.vpes[id])
	}
	return vpes
}

// VPEOnPE returns the non-exited VPE bound to the given PE, or nil. It
// walks the ids in order, without building VPEs' sorted list, since
// every program start asks it (m3.NewEnv).
func (k *Kernel) VPEOnPE(peID int) *VPE {
	for id := uint64(1); id <= k.nextVPE; id++ {
		if vpe := k.vpes[id]; vpe != nil && !vpe.exited && vpe.PE != nil && vpe.PE.ID == peID {
			return vpe
		}
	}
	return nil
}

// CPU exposes the kernel CPU resource for utilisation statistics.
func (k *Kernel) CPU() *sim.Resource { return k.cpu }

func (k *Kernel) newVPE(name string, pe *tile.PE) *VPE {
	k.nextVPE++
	vpe := &VPE{
		ID:      k.nextVPE,
		Name:    name,
		PE:      pe,
		epCaps:  make([]*Capability, pe.DTU.NumEndpoints()),
		exitSig: sim.NewSignal(k.Plat.Eng),
	}
	vpe.Caps = newCapTable(vpe)
	k.vpes[vpe.ID] = vpe
	return vpe
}

// allocPE hands out an unused, live PE, reset: an exit leaves its PE's
// endpoints configured, and the next occupant must not inherit them.
func (k *Kernel) allocPE(peType tile.CoreType) *tile.PE {
	for _, pe := range k.Plat.PEs {
		if !k.peUsed[pe.ID] && !pe.Crashed() && (peType == "" || pe.Type == peType) {
			k.peUsed[pe.ID] = true
			pe.Reset()
			return pe
		}
	}
	return nil
}

// compute models kernel software work: it occupies the (single) kernel
// CPU for n cycles.
func (k *Kernel) compute(p *sim.Process, n sim.Time) {
	k.cpu.Acquire(p, 1)
	p.Sleep(n)
	k.cpu.Release(1)
}

// run is the kernel program: boot, then dispatch system calls forever.
func (k *Kernel) run(c *tile.Ctx) {
	p := c.P
	for _, pe := range k.Plat.PEs {
		if pe.ID == k.PE.ID {
			continue
		}
		if err := k.PE.DTU.SetPrivilegedRemote(p, pe.Node, false); err != nil {
			panic(fmt.Sprintf("core: downgrade of PE %d failed: %v", pe.ID, err))
		}
	}
	for _, init := range k.inits {
		k.installStdEPs(p, init.vpe)
		prog := init.prog
		init.vpe.started = true
		init.vpe.PE.Start(init.vpe.Name, prog)
	}
	k.booted = true
	k.dispatch(p)
}

// installStdEPs configures the standard endpoints of a VPE's PE: the
// syscall send gate, the syscall-reply receive gate, and the
// call-reply receive gate.
func (k *Kernel) installStdEPs(p *sim.Process, vpe *VPE) {
	node := vpe.PE.Node
	mustConfig(k.configRemote(p, node, kif.SyscallEP, dtu.Endpoint{
		Type: dtu.EpSend, Target: k.PE.Node, TargetEP: kif.KSyscallEP,
		Label: vpe.ID, Credits: 1, MsgSize: kif.MaxMsgSize,
	}))
	mustConfig(k.configRemote(p, node, kif.SysReplyEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.SysReplyBufAddr,
		SlotSize: kif.SysReplySlotSize, SlotCount: kif.SysReplySlots,
	}))
	mustConfig(k.configRemote(p, node, kif.CallReplyEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.CallReplyBufAddr,
		SlotSize: kif.CallReplySlotSize, SlotCount: kif.CallReplySlots,
	}))
}

// dispatch is the kernel main loop. It is a daemon for deadlock
// accounting: a run where only the kernel still waits for messages has
// terminated normally.
func (k *Kernel) dispatch(p *sim.Process) {
	p.SetDaemon()
	d := k.PE.DTU
	for {
		msg, ep := d.WaitMsg(p, kif.KSyscallEP, kif.KServReplyEP)
		if ep == kif.KServReplyEP {
			// Service-protocol reply: route to the waiting helper.
			k.compute(p, CostServReply)
			if pend, ok := k.pendingServ[msg.Label]; ok {
				pend.msg = msg
				pend.sig.Broadcast()
			} else {
				d.Ack(ep, msg)
			}
			continue
		}
		k.handleSyscall(p, msg)
	}
}

func (k *Kernel) handleSyscall(p *sim.Process, msg *dtu.Message) {
	vpe := k.vpes[msg.Label]
	is := kif.NewIStream(msg.Data)
	op := is.Op()
	k.compute(p, CostDispatch)
	if is.Err() != nil {
		// Too short to even carry an opcode.
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	k.Stats.Syscalls[op]++
	if tr := k.Plat.Obs; tr.On() {
		k.mSyscalls.Inc()
		tr.Metrics().Counter(MSyscalls, int(op)).Inc()
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvKSyscallStart, Span: obs.SpanID(msg.Span),
			Arg0: uint64(op), Arg1: msg.Label})
	}
	if vpe == nil || vpe.exited {
		k.replyErr(p, msg, kif.ErrVPEGone)
		return
	}
	switch op {
	case kif.SysNoop:
		k.compute(p, CostNoop)
		k.replyErr(p, msg, kif.OK)
	case kif.SysCreateVPE:
		k.sysCreateVPE(p, vpe, &is, msg)
	case kif.SysVPEStart:
		k.sysVPEStart(p, vpe, &is, msg)
	case kif.SysVPEWait:
		k.sysVPEWait(p, vpe, &is, msg)
	case kif.SysExit:
		k.sysExit(p, vpe, &is, msg)
	case kif.SysReqMem:
		k.sysReqMem(p, vpe, &is, msg)
	case kif.SysDeriveMem:
		k.sysDeriveMem(p, vpe, &is, msg)
	case kif.SysCreateRGate:
		k.sysCreateRGate(p, vpe, &is, msg)
	case kif.SysCreateSGate:
		k.sysCreateSGate(p, vpe, &is, msg)
	case kif.SysActivate:
		k.sysActivate(p, vpe, &is, msg)
	case kif.SysCreateSrv:
		k.sysCreateSrv(p, vpe, &is, msg)
	case kif.SysOpenSess:
		k.sysOpenSess(p, vpe, &is, msg)
	case kif.SysExchangeSess:
		k.sysExchangeSess(p, vpe, &is, msg)
	case kif.SysDelegate, kif.SysObtain:
		k.sysExchangeVPE(p, vpe, &is, msg, op == kif.SysObtain)
	case kif.SysRevoke:
		k.sysRevoke(p, vpe, &is, msg)
	default:
		k.replyErr(p, msg, kif.ErrInvalidArgs)
	}
}

// reply sends a syscall reply the caller marshalled into o.
func (k *Kernel) reply(p *sim.Process, msg *dtu.Message, o *kif.OStream) {
	k.compute(p, CostReply)
	k.sendReply(p, msg, o.Bytes())
}

// sendReply transmits a syscall reply and acks msg; DTU.Reply copies data
// before it can yield.
func (k *Kernel) sendReply(p *sim.Process, msg *dtu.Message, data []byte) {
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvKSyscallEnd, Span: obs.SpanID(msg.Span), Arg1: msg.Label})
	}
	if !msg.CanReply() {
		k.PE.DTU.Ack(kif.KSyscallEP, msg)
		return
	}
	// Read what the error path reports before Reply recycles msg.
	span, label := msg.Span, msg.Label
	if err := k.PE.DTU.Reply(p, kif.KSyscallEP, msg, data); err != nil {
		if errors.Is(err, dtu.ErrTimeout) {
			// The client (or its reply path) is gone; under fault
			// injection the DTU gives up after its retry budget. The
			// kernel must stay up — drop the reply and move on.
			k.Stats.RepliesDropped++
			if tr := k.Plat.Obs; tr.On() {
				tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
					Kind: obs.EvReplyDrop, Span: obs.SpanID(span), Arg0: label})
			}
			return
		}
		panic(fmt.Sprintf("core: syscall reply failed: %v", err))
	}
}

func (k *Kernel) replyErr(p *sim.Process, msg *dtu.Message, e kif.Error) {
	k.compute(p, CostReply)
	k.out.Reset().Err(e)
	k.sendReply(p, msg, k.out.Bytes())
}
