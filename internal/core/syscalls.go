package core

import (
	"slices"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// sysCreateVPE: createvpe(vpeSel, memSel, name, peType) -> (err, vpeID, peID).
// Allocates a suitable, unused PE, creates the VPE kernel object and a
// VPE capability, and gives the requester a memory gate for the new
// PE's local memory (used by libm3 for application loading).
func (k *Kernel) sysCreateVPE(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	vpeSel, memSel := is.Sel(), is.Sel()
	name, peType := is.Str(), is.Str()
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	k.compute(p, CostCreateVPE)
	pe := k.allocPE(tile.CoreType(peType))
	if pe == nil {
		k.replyErr(p, msg, kif.ErrNoFreePE)
		return
	}
	child := k.newVPE(name, pe)
	vpeCap, err := vpe.Caps.Install(vpeSel, CapVPE, child)
	if err == kif.OK {
		memObj := &MemObj{Node: pe.Node, Addr: 0, Size: pe.SPM.Size(), Perms: dtu.PermRW}
		if _, err = vpe.Caps.Install(memSel, CapMem, memObj); err != kif.OK {
			vpeCap.Revoke(nil) // fresh: no delegations, no endpoint
		}
	}
	if err != kif.OK {
		k.peUsed[pe.ID] = false
		delete(k.vpes, child.ID)
		k.replyErr(p, msg, err)
		return
	}
	var o kif.OStream
	o.Err(kif.OK).U64(child.ID).U64(uint64(pe.ID))
	k.reply(p, msg, &o)
}

// sysVPEStart: vpestart(vpeSel, progID) -> err. Installs the standard
// endpoints on the target PE and starts the program.
func (k *Kernel) sysVPEStart(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	vpeSel, progID := is.Sel(), is.U64()
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(vpeSel, CapVPE)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	child := cap.Obj.(*VPE)
	prog := k.Progs.Get(progID)
	if prog == nil || child.exited {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	k.compute(p, CostVPEStart)
	k.installStdEPs(p, child)
	child.started = true
	child.PE.Start(child.Name, prog)
	k.replyErr(p, msg, kif.OK)
}

// sysVPEWait: vpewait(vpeSel) -> (err, exitCode). The reply is
// deferred until the VPE exits; a kernel helper activity waits so the
// dispatcher stays responsive.
func (k *Kernel) sysVPEWait(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	vpeSel := is.Sel()
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(vpeSel, CapVPE)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	child := cap.Obj.(*VPE)
	k.compute(p, CostVPEWait)
	k.Plat.Eng.Spawn("kernel-wait", func(hp *sim.Process) {
		for !child.exited {
			child.exitSig.Wait(hp)
		}
		var o kif.OStream
		o.Err(kif.OK).I64(child.exitCode)
		k.reply(hp, msg, &o)
	})
}

// sysExit: exit(code). No reply is expected; the kernel drops the
// VPE's capabilities and frees its PE for reuse.
func (k *Kernel) sysExit(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	code := is.I64()
	k.compute(p, CostExit)
	k.revoke(p, 0, 0, func(w *dropWalk) { w.end(vpe, code) })
	k.PE.DTU.Ack(kif.KSyscallEP, msg)
}

// dropWalk is one revocation walk's own record (the watchdog's reap and
// the dispatcher walk in different processes): how many capabilities it
// dropped, the endpoints they were active on, the VPEs it ended and the
// nodes of the PEs it reset.
type dropWalk struct {
	k       *Kernel
	dropped int
	eps     []epRef
	ended   []*VPE
	reset   []noc.NodeID
}

type epRef struct {
	node noc.NodeID
	ep   int
}

// revoke is the kernel's one drop routine, behind revoke, exit, the
// revocation of a VPE capability and the reap: it runs walk, charges
// fixed plus perCap per dropped capability, invalidates the endpoints
// the walk collected, and only then wakes the waiters of ended VPEs and
// deferred activations, so nobody learns of a drop while its rights are
// still live in hardware. An endpoint on a PE the walk reset is gone
// already and costs no invalidation; a crashed PE is never reset, so
// the reap still invalidates all of its endpoints.
func (k *Kernel) revoke(p *sim.Process, fixed, perCap sim.Time, walk func(w *dropWalk)) {
	w := &dropWalk{k: k}
	walk(w)
	if cost := fixed + perCap*sim.Time(w.dropped); cost > 0 {
		k.compute(p, cost)
	}
	for _, e := range w.eps {
		if !slices.Contains(w.reset, e.node) {
			k.invalidateEP(p, e.node, e.ep)
		}
	}
	for _, vpe := range w.ended {
		vpe.exitSig.Broadcast()
	}
	if len(w.ended) > 0 {
		k.actSig.Broadcast()
	}
}

// end marks vpe exited with code and drops its whole capability table
// in this walk. Its PE is cleared when it is next handed out (allocPE);
// a crashed PE is never returned to the allocator.
func (w *dropWalk) end(vpe *VPE, code int64) {
	vpe.exited, vpe.exitCode = true, code
	w.ended = append(w.ended, vpe)
	vpe.Caps.revokeAll(w.onDrop)
	if !vpe.PE.Crashed() {
		w.k.peUsed[vpe.PE.ID] = false
	}
}

// onDrop collects every endpoint of a live owner that the dropped c is
// active on and releases c's kernel object. The drop is traced:
// revocation order is part of the event schedule (session closes and
// memory releases happen in this order), so the determinism regression
// test hashes these events to witness it.
func (w *dropWalk) onDrop(c *Capability) {
	k := w.k
	w.dropped++
	if v := c.table.vpe; !v.exited {
		for ep, act := range v.epCaps {
			if act == c {
				v.epCaps[ep] = nil
				w.eps = append(w.eps, epRef{v.PE.Node, ep})
			}
		}
	}
	if tr := k.Plat.Obs; tr.On() {
		k.mCapRevocations.Inc()
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvCapDrop, Arg0: uint64(c.Type), Arg1: uint64(c.sel), Arg2: c.table.vpe.ID})
	}
	switch obj := c.Obj.(type) {
	case *MemObj:
		if obj.root && !obj.stable && obj.Node == k.Plat.DRAMNode {
			// Stable (supervisor-pinned) regions deliberately survive
			// the drop: a restarted service incarnation re-adopts them.
			k.dram.release(obj.Addr, obj.Size)
		}
	case *ServiceObj:
		if k.services[obj.Name] == obj {
			delete(k.services, obj.Name)
		}
	case *SessObj:
		// Tell the service the session is gone so it can drop its
		// per-session state (open files). Only the root session
		// capability — the one opensess installed under the service
		// capability — closes the session; dropping a delegated copy
		// does not (the paper's recursive revoke removes the copies
		// when the root goes).
		if c.parent == nil || c.parent.Type == CapService {
			k.closeSession(obj)
		}
	case *VPE:
		// Revoking a VPE capability ends the VPE and resets its PE,
		// killing the program (the paper, §4.5.5).
		if !obj.exited {
			w.end(obj, -1)
			obj.PE.Reset()
			w.reset = append(w.reset, obj.PE.Node)
		}
	}
}

// closeSession notifies a service that a client session disappeared.
func (k *Kernel) closeSession(sess *SessObj) {
	svc := sess.Service
	if svc.Owner.exited {
		// Dead incarnation: there is nobody to notify, so no helper is
		// spawned. A superseded one is refused by callService, whose
		// successor never issued this session ident.
		return
	}
	k.Plat.Eng.Spawn("kernel-closesess", func(hp *sim.Process) {
		var req kif.OStream
		req.U64(uint64(kif.ServCloseSess)).U64(sess.Ident)
		// Session teardown has no originating request: no span. Nobody
		// waits for the outcome; callService acks the reply.
		k.callService(hp, svc, req.Bytes(), 0)
	})
}

// sysReqMem: reqmem(dstSel, size, perms, stable) -> err. Allocates
// DRAM. With the stable flag set and the caller supervised, the kernel
// pins the region and hands the same bytes back to every restarted
// incarnation of the caller (journal recovery); for anyone else the
// flag is a plain allocation.
func (k *Kernel) sysReqMem(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	dstSel, size, perms := is.Sel(), int(is.U64()), dtu.Perm(is.U64())
	stable := is.U64() != 0
	if is.Err() != nil || size <= 0 {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	k.compute(p, CostReqMem)
	var addr int
	pinned := false
	if stable {
		if a, _, ok := k.stableRegionFor(vpe, size); ok {
			addr, pinned = a, true
		}
	}
	if !pinned {
		a, ok := k.dram.alloc(size)
		if !ok {
			k.replyErr(p, msg, kif.ErrNoSpace)
			return
		}
		addr = a
	}
	obj := &MemObj{Node: k.Plat.DRAMNode, Addr: addr, Size: size, Perms: perms & dtu.PermRW, root: true, stable: pinned}
	if _, err := vpe.Caps.Install(dstSel, CapMem, obj); err != kif.OK {
		if !pinned {
			k.dram.release(addr, size)
		}
		k.replyErr(p, msg, err)
		return
	}
	var o kif.OStream
	o.Err(kif.OK).U64(uint64(addr))
	k.reply(p, msg, &o)
}

// sysDeriveMem: derivemem(srcSel, dstSel, off, size, perms) -> err.
// Creates a sub-range memory capability as a child of the source, with
// equal or fewer permissions.
func (k *Kernel) sysDeriveMem(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	srcSel, dstSel := is.Sel(), is.Sel()
	off, size, perms := int(is.U64()), int(is.U64()), dtu.Perm(is.U64())
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(srcSel, CapMem)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	src := cap.Obj.(*MemObj)
	if off < 0 || size <= 0 || off+size > src.Size {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	if perms&^src.Perms != 0 {
		k.replyErr(p, msg, kif.ErrNoPerm)
		return
	}
	k.compute(p, CostDeriveMem)
	obj := &MemObj{Node: src.Node, Addr: src.Addr + off, Size: size, Perms: perms}
	if _, err := cap.DelegateTo(vpe.Caps, dstSel, obj); err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	k.replyErr(p, msg, kif.OK)
}

// sysCreateRGate: creatergate(dstSel, slotSize, slots) -> err.
func (k *Kernel) sysCreateRGate(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	dstSel, slotSize, slots := is.Sel(), int(is.U64()), int(is.U64())
	if is.Err() != nil || slotSize <= 0 || slots <= 0 {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	k.compute(p, CostCreateRG)
	obj := &RGateObj{Owner: vpe, SlotSize: slotSize, Slots: slots, EP: -1}
	if _, err := vpe.Caps.Install(dstSel, CapRGate, obj); err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	k.replyErr(p, msg, kif.OK)
}

// sysCreateSGate: createsgate(dstSel, rgateSel, label, credits) -> err.
// The send gate is a child of the receive gate in the capability tree,
// so revoking the receive gate invalidates all senders.
func (k *Kernel) sysCreateSGate(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	dstSel, rgateSel := is.Sel(), is.Sel()
	label, credits := is.U64(), int(is.I64())
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	rcap, err := vpe.Caps.Get(rgateSel, CapRGate)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	rg := rcap.Obj.(*RGateObj)
	if rg.Owner != vpe {
		k.replyErr(p, msg, kif.ErrNoPerm)
		return
	}
	k.compute(p, CostCreateSG)
	obj := &SGateObj{RGate: rg, Label: label, Credits: credits}
	if _, e := vpe.Caps.InstallChild(rcap, dstSel, CapSGate, obj); e != kif.OK {
		k.replyErr(p, msg, e)
		return
	}
	k.replyErr(p, msg, kif.OK)
}

// sysActivate: activate(capSel, ep, bufAddr) -> err. Configures an
// endpoint of the caller's DTU for the given gate capability. For send
// gates whose receive gate is not yet activated, the reply is deferred
// until the receiver is ready (the paper, §4.5.4).
func (k *Kernel) sysActivate(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	capSel, ep, bufAddr := is.Sel(), int(is.I64()), int(is.U64())
	if is.Err() != nil || ep < kif.FirstFreeEP || ep >= vpe.PE.DTU.NumEndpoints() {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(capSel, CapInvalid)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	k.compute(p, CostActivate)
	switch obj := cap.Obj.(type) {
	case *MemObj:
		k.replyConfig(p, msg, vpe, ep, cap, k.configRemote(p, vpe.PE.Node, ep, dtu.Endpoint{
			Type: dtu.EpMemory, MemTarget: obj.Node, MemAddr: obj.Addr,
			MemSize: obj.Size, MemPerms: obj.Perms,
		}))
	case *RGateObj:
		if obj.Owner != vpe {
			k.replyErr(p, msg, kif.ErrNoPerm)
			return
		}
		cfgErr := k.configRemote(p, vpe.PE.Node, ep, dtu.Endpoint{
			Type: dtu.EpReceive, BufAddr: bufAddr,
			SlotSize: obj.SlotSize + dtu.HeaderSize, SlotCount: obj.Slots,
		})
		if cfgErr == nil {
			obj.EP, obj.BufAddr = ep, bufAddr
			k.actSig.Broadcast()
		}
		k.replyConfig(p, msg, vpe, ep, cap, cfgErr)
	case *SGateObj:
		if obj.RGate.Activated() {
			k.replyConfig(p, msg, vpe, ep, cap, k.configSend(p, vpe, ep, obj))
			return
		}
		// Defer until the receiver is ready. The helper also wakes on
		// VPE teardown: if the requester or the gate owner dies before
		// the activation, it must not linger forever.
		k.Plat.Eng.Spawn("kernel-activate", func(hp *sim.Process) {
			for !obj.RGate.Activated() && !vpe.exited && !obj.RGate.Owner.exited {
				k.actSig.Wait(hp)
			}
			k.compute(hp, CostActivate)
			if !obj.RGate.Activated() {
				k.replyErr(hp, msg, kif.ErrVPEGone)
				return
			}
			k.replyConfig(hp, msg, vpe, ep, cap, k.configSend(hp, vpe, ep, obj))
		})
	default:
		k.replyErr(p, msg, kif.ErrInvalidArgs)
	}
}

func (k *Kernel) configSend(p *sim.Process, vpe *VPE, ep int, sg *SGateObj) error {
	return k.configRemote(p, vpe.PE.Node, ep, dtu.Endpoint{
		Type: dtu.EpSend, Target: sg.RGate.Owner.PE.Node, TargetEP: sg.RGate.EP,
		Label: sg.Label, Credits: sg.Credits, MsgSize: sg.RGate.SlotSize,
	})
}

// replyConfig answers an activation. If the endpoint was configured, cap
// now owns it in the kernel's record, and whatever gate was there before
// no longer does: a later revocation of a gate evicted from a
// multiplexed endpoint must not invalidate its new occupant. A cap
// dropped while the kernel configured it (a deferred activation waits)
// gets its endpoint invalidated instead.
func (k *Kernel) replyConfig(p *sim.Process, msg *dtu.Message, vpe *VPE, ep int, cap *Capability, cfgErr error) {
	if cfgErr != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	if vpe.Caps.caps[cap.sel] != cap {
		if !vpe.exited {
			k.invalidateEP(p, vpe.PE.Node, ep)
		}
		k.replyErr(p, msg, kif.ErrNoSuchCap)
		return
	}
	vpe.epCaps[ep] = cap
	k.replyErr(p, msg, kif.OK)
}

// sysRevoke: revoke(sel) -> err.
func (k *Kernel) sysRevoke(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	sel := is.Sel()
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(sel, CapInvalid)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	k.revoke(p, 0, CostRevokeCap, func(w *dropWalk) { cap.Revoke(w.onDrop) })
	k.replyErr(p, msg, kif.OK)
}

// sysExchangeVPE implements the direct VPE-to-VPE delegate and obtain
// operations, which require holding a capability for the peer VPE.
func (k *Kernel) sysExchangeVPE(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message, obtain bool) {
	vpeSel, mine, theirs, count := is.Sel(), is.Sel(), is.Sel(), is.U64()
	if is.Err() != nil || count == 0 || count > 32 {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(vpeSel, CapVPE)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	peer := cap.Obj.(*VPE)
	k.compute(p, CostExchange+CostPerCap*sim.Time(count))
	var srcTab, dstTab *CapTable
	var srcStart, dstStart kif.CapSel
	if obtain {
		srcTab, dstTab, srcStart, dstStart = peer.Caps, vpe.Caps, theirs, mine
	} else {
		srcTab, dstTab, srcStart, dstStart = vpe.Caps, peer.Caps, mine, theirs
	}
	if e := exchangeCaps(srcTab, dstTab, srcStart, dstStart, count); e != kif.OK {
		k.replyErr(p, msg, e)
		return
	}
	k.replyErr(p, msg, kif.OK)
}

// exchangeCaps copies count capabilities between tables, refusing
// receive gates (they cannot be moved; the paper, §4.5.4).
func exchangeCaps(src, dst *CapTable, srcStart, dstStart kif.CapSel, count uint64) kif.Error {
	for i := uint64(0); i < count; i++ {
		c, err := src.Get(srcStart+kif.CapSel(i), CapInvalid)
		if err != kif.OK {
			return err
		}
		if c.Type == CapRGate {
			return kif.ErrNoPerm
		}
	}
	for i := uint64(0); i < count; i++ {
		c, _ := src.Get(srcStart+kif.CapSel(i), CapInvalid)
		if _, err := c.DelegateTo(dst, dstStart+kif.CapSel(i), nil); err != kif.OK {
			return err
		}
	}
	return kif.OK
}
