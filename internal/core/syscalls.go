package core

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/obs"
	"repro/internal/overload"
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
	if _, err := vpe.Caps.Install(vpeSel, CapVPE, child); err != kif.OK {
		k.freePE(pe)
		delete(k.vpes, child.ID)
		k.replyErr(p, msg, err)
		return
	}
	memObj := &MemObj{Node: pe.Node, Addr: 0, Size: pe.SPM.Size(), Perms: dtu.PermRW}
	if _, err := vpe.Caps.Install(memSel, CapMem, memObj); err != kif.OK {
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

// sysExit: exit(code). No reply is expected; the kernel tears down the
// VPE's capabilities and frees its PE for reuse.
func (k *Kernel) sysExit(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	code := is.I64()
	k.compute(p, CostExit)
	k.destroyVPE(vpe, code)
	k.PE.DTU.Ack(kif.KSyscallEP, msg)
}

func (k *Kernel) destroyVPE(vpe *VPE, code int64) {
	k.teardownVPE(vpe, code, false)
}

// teardownVPE ends a VPE: revoke all capabilities, optionally reset the
// PE (kill the program and clear its DTU endpoints, §4.5.5), and wake
// waiters. A crashed PE is never returned to the allocator.
func (k *Kernel) teardownVPE(vpe *VPE, code int64, reset bool) {
	if vpe.exited {
		return
	}
	vpe.exited = true
	vpe.exitCode = code
	vpe.Caps.revokeAll(k.onDrop)
	if reset {
		vpe.PE.Reset()
	}
	if !vpe.PE.Crashed() {
		k.freePE(vpe.PE)
	}
	vpe.exitSig.Broadcast()
	k.actSig.Broadcast()
}

func (k *Kernel) freePE(pe *tile.PE) {
	if pe != nil {
		k.peUsed[pe.ID] = false
	}
}

// onDrop releases the kernel object of a removed capability.
//
// The drop is traced: revocation order is part of the event schedule
// (session closes and memory releases happen in this order), so the
// determinism regression test hashes these events to witness it.
func (k *Kernel) onDrop(c *Capability) {
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
		// Revoking a VPE capability resets the PE and makes it
		// available again (the paper, §4.5.5).
		k.teardownVPE(obj, -1, true)
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
		// Session teardown has no originating request: no span. It is
		// never shed (PriorityHigh): dropping a close leaks service-side
		// session state, which is exactly what an overloaded service
		// cannot afford. Nobody waits for the outcome; callService acks
		// the reply.
		k.callService(hp, svc, req.Bytes(), 0, overload.PriorityHigh)
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
		cfgErr := k.configRemote(p, vpe.PE.Node, ep, dtu.Endpoint{
			Type: dtu.EpMemory, MemTarget: obj.Node, MemAddr: obj.Addr,
			MemSize: obj.Size, MemPerms: obj.Perms,
		})
		if cfgErr == nil {
			recordActivation(vpe, ep, cap)
		}
		k.replyConfig(p, msg, cfgErr)
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
			obj.EP = ep
			obj.BufAddr = bufAddr
			// Claim the endpoint in the kernel's bookkeeping: if a
			// multiplexed gate was evicted from this endpoint earlier, a
			// later revocation of that gate's capability must not
			// invalidate the receive gate now living here.
			recordActivation(vpe, ep, cap)
			k.actSig.Broadcast()
		}
		k.replyConfig(p, msg, cfgErr)
	case *SGateObj:
		if obj.RGate.Activated() {
			err := k.configSend(p, vpe, ep, obj)
			if err == nil {
				recordActivation(vpe, ep, cap)
			}
			k.replyConfig(p, msg, err)
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
			err := k.configSend(hp, vpe, ep, obj)
			if err == nil {
				recordActivation(vpe, ep, cap)
			}
			k.replyConfig(hp, msg, err)
		})
	default:
		k.replyErr(p, msg, kif.ErrInvalidArgs)
	}
}

// recordActivation updates the kernel's endpoint bookkeeping: cap now
// owns ep at vpe; whatever was there before no longer does.
func recordActivation(vpe *VPE, ep int, cap *Capability) {
	if prev := vpe.epCaps[ep]; prev != nil && prev != cap {
		prev.actVPE, prev.actEP = nil, 0
	}
	vpe.epCaps[ep] = cap
	cap.actVPE, cap.actEP = vpe, ep
}

func (k *Kernel) configSend(p *sim.Process, vpe *VPE, ep int, sg *SGateObj) error {
	return k.configRemote(p, vpe.PE.Node, ep, dtu.Endpoint{
		Type: dtu.EpSend, Target: sg.RGate.Owner.PE.Node, TargetEP: sg.RGate.EP,
		Label: sg.Label, Credits: sg.Credits, MsgSize: sg.RGate.SlotSize,
	})
}

func (k *Kernel) replyConfig(p *sim.Process, msg *dtu.Message, cfgErr error) {
	if cfgErr != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
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
	dropped := 0
	type actRec struct {
		vpe *VPE
		ep  int
	}
	var acts []actRec
	cap.Revoke(func(c *Capability) {
		dropped++
		if v := c.actVPE; v != nil && !v.exited && v.epCaps[c.actEP] == c {
			acts = append(acts, actRec{v, c.actEP})
			delete(v.epCaps, c.actEP)
		}
		k.onDrop(c)
	})
	k.compute(p, CostRevokeCap*sim.Time(dropped))
	// Invalidate every endpoint a dropped capability was activated on:
	// isolation is enforced at the NoC level, so the DTUs must stop
	// honouring the revoked rights immediately.
	for _, a := range acts {
		// A failed invalidation would leave the revoked rights live in
		// hardware — an isolation hole, not a recoverable error.
		mustConfig(k.configRemote(p, a.vpe.PE.Node, a.ep, dtu.Endpoint{Type: dtu.EpInvalid}))
	}
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
