package core

import (
	"errors"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sysCreateSrv: createsrv(dstSel, rgateSel, name) -> err. Registers a
// service and creates the kernel's private control channel to it: a
// kernel-DTU send endpoint targeting the service's (already activated)
// control receive gate.
func (k *Kernel) sysCreateSrv(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	dstSel, rgateSel, name := is.Sel(), is.Sel(), is.Str()
	if is.Err() != nil || name == "" {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	if _, exists := k.services[name]; exists {
		k.replyErr(p, msg, kif.ErrExists)
		return
	}
	rcap, err := vpe.Caps.Get(rgateSel, CapRGate)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	rg := rcap.Obj.(*RGateObj)
	if rg.Owner != vpe || !rg.Activated() {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	if k.nextSrvEP >= k.PE.DTU.NumEndpoints() {
		k.replyErr(p, msg, kif.ErrNoSpace)
		return
	}
	k.compute(p, CostCreateSrv)
	sendEP := k.nextSrvEP
	k.nextSrvEP++
	mustConfig(k.PE.DTU.Configure(sendEP, dtu.Endpoint{
		Type: dtu.EpSend, Target: vpe.PE.Node, TargetEP: rg.EP,
		Label: 0, Credits: rg.Slots, MsgSize: rg.SlotSize,
	}))
	k.srvEpochs[name]++
	obj := &ServiceObj{Name: name, Owner: vpe, RGate: rg, sendEP: sendEP, sel: dstSel, Epoch: k.srvEpochs[name]}
	if _, e := vpe.Caps.Install(dstSel, CapService, obj); e != kif.OK {
		k.replyErr(p, msg, e)
		return
	}
	k.services[name] = obj
	k.replyErr(p, msg, kif.OK)
}

// callService sends a control message to a service and waits for its
// reply, correlated via the reply label. The calling helper blocks;
// the kernel CPU is free in the meantime. The reply's slot is acked
// here; the returned stream decodes the kernel's copy of the payload,
// which stays valid until the next service call returns, so the caller
// decodes it before it yields.
//
// Both wait points — credits of the control channel and the reply
// itself — honor the call budget the fault plan arms on the kernel
// PE's DTU (DTU.CallDeadline, as libm3 reads it): a dead or wedged
// service earns the caller kif.ErrTimeout instead of stalling the
// helper forever. With no budget armed (every fault-free run) the
// waits are unbounded and not a single extra event is scheduled.
// A superseded incarnation (serviceCurrent fails: the service died,
// possibly already re-registered at a newer epoch) is refused with
// kif.ErrNoSuchService before anything is counted or sent, so no
// request of a dead incarnation ever reaches its successor. A request
// the service DTU refuses at its admission watermark (docs/OVERLOAD.md)
// comes back as kif.ErrOverload after one round trip, counted in
// Stats.CallsRefused and not retried.
func (k *Kernel) callService(p *sim.Process, svc *ServiceObj, payload []byte, span obs.SpanID) (kif.IStream, kif.Error) {
	if !k.serviceCurrent(svc) {
		return kif.IStream{}, kif.ErrNoSuchService
	}
	deadline := k.PE.DTU.CallDeadline()
	k.nextServOp++
	opID := k.nextServOp
	pend := &servPending{sig: sim.NewSignal(k.Plat.Eng)}
	k.pendingServ[opID] = pend
	k.Stats.ServiceCalls++
	t0 := k.Plat.Eng.Now()
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: t0, PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvSvcCallStart, Span: span,
			Arg0: uint64(svc.sendEP), Arg1: opID})
	}
	// Arm the span register once: the DTU consumes it only when a send
	// succeeds, so credit-denied retries keep it.
	k.PE.DTU.StampSpan(span)
	defer func() {
		if tr := k.Plat.Obs; tr.On() {
			now := k.Plat.Eng.Now()
			tr.Emit(obs.Event{At: now, PE: int32(k.PE.Node), Layer: obs.LKernel,
				Kind: obs.EvSvcCallEnd, Span: span,
				Arg0: uint64(svc.sendEP), Arg1: opID})
			tr.Hist(obs.HSvcCall).Observe(uint64(now - t0))
		}
	}()
	if err := k.PE.DTU.SendWait(p, svc.sendEP, payload, kif.KServReplyEP, opID, deadline, span); err != nil {
		delete(k.pendingServ, opID)
		if errors.Is(err, dtu.ErrNoCredits) {
			// The credit wait expired: the service is as dead as one
			// that never replies.
			k.Stats.ServiceTimeouts++
			return kif.IStream{}, kif.ErrTimeout
		}
		return kif.IStream{}, kif.ErrNoSuchService
	}
	if deadline > 0 {
		expired := false
		k.Plat.Eng.Schedule(deadline, func() {
			// Only wake the helper if this very call is still pending
			// and unanswered; a reply that raced the timer wins.
			if k.pendingServ[opID] == pend && pend.msg == nil {
				expired = true
				pend.sig.Broadcast()
			}
		})
		for pend.msg == nil && !expired {
			pend.sig.Wait(p)
		}
	} else {
		for pend.msg == nil {
			pend.sig.Wait(p)
		}
	}
	delete(k.pendingServ, opID)
	if pend.msg == nil {
		// A reply arriving after this point finds no pending record and
		// is acked by the dispatcher, which is exactly the behavior for
		// any other unsolicited message on the reply gate.
		k.Stats.ServiceTimeouts++
		return kif.IStream{}, kif.ErrTimeout
	}
	if pend.msg.Overloaded() {
		// The service DTU refused the request at its admission watermark
		// and fast-failed it; the slot never held real work.
		k.PE.DTU.Ack(kif.KServReplyEP, pend.msg)
		k.Stats.CallsRefused++
		return kif.IStream{}, kif.ErrOverload
	}
	k.servReply = append(k.servReply[:0], pend.msg.Data...)
	k.PE.DTU.Ack(kif.KServReplyEP, pend.msg)
	return kif.NewIStream(k.servReply), kif.OK
}

// sysOpenSess: opensess(dstSel, name, arg) -> err. The kernel asks the
// service to accept a session; the service's answer carries the
// session identifier it chose. Handled by a helper activity because it
// blocks on the service.
func (k *Kernel) sysOpenSess(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	dstSel, name, arg := is.Sel(), is.Str(), is.Str()
	if is.Err() != nil {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	svc, ok := k.services[name]
	if !ok {
		k.replyErr(p, msg, kif.ErrNoSuchService)
		return
	}
	k.compute(p, CostOpenSess)
	k.Plat.Eng.Spawn("kernel-opensess", func(hp *sim.Process) {
		var req kif.OStream
		req.U64(uint64(kif.ServOpen)).Str(arg)
		// If the registration this open raced against is gone, the call
		// fails with ErrNoSuchService and the client retries against the
		// current incarnation.
		ris, cerr := k.callService(hp, svc, req.Bytes(), obs.SpanID(msg.Span))
		if cerr != kif.OK {
			k.replyErr(hp, msg, cerr)
			return
		}
		serr := ris.ErrCode()
		ident := ris.U64()
		k.compute(hp, CostSessSetup)
		if serr != kif.OK {
			k.replyErr(hp, msg, serr)
			return
		}
		sess := &SessObj{Service: svc, Ident: ident, Client: vpe}
		if vpe.exited {
			// The client died (crash reap) while the service accepted
			// the session: close it right back instead of installing a
			// capability into a torn-down table.
			k.closeSession(sess)
			k.replyErr(hp, msg, kif.ErrVPEGone)
			return
		}
		svcCap, gerr := svc.Owner.Caps.Get(svc.sel, CapService)
		var ierr kif.Error
		if gerr == kif.OK && svcCap.Obj == svc {
			_, ierr = vpe.Caps.InstallChild(svcCap, dstSel, CapSession, sess)
		} else {
			_, ierr = vpe.Caps.Install(dstSel, CapSession, sess)
		}
		if ierr != kif.OK {
			k.replyErr(hp, msg, ierr)
			return
		}
		k.replyErr(hp, msg, kif.OK)
	})
}

// sysExchangeSess: exchangesess(sessSel, obtain, capsStart, capsCount,
// args) -> (err, retArgs). The kernel forwards the request to the
// service, which decides and names capabilities from its own table;
// the kernel then moves them between the service's and the client's
// tables. This is the mechanism behind m3fs handing out memory
// capabilities for file extents.
func (k *Kernel) sysExchangeSess(p *sim.Process, vpe *VPE, is *kif.IStream, msg *dtu.Message) {
	sessSel := is.Sel()
	obtain := is.U64() != 0
	capsStart, capsCount := is.Sel(), is.U64()
	args := is.Blob()
	if is.Err() != nil || capsCount > 32 {
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	cap, err := vpe.Caps.Get(sessSel, CapSession)
	if err != kif.OK {
		k.replyErr(p, msg, err)
		return
	}
	sess := cap.Obj.(*SessObj)
	k.compute(p, CostExchange)
	k.Plat.Eng.Spawn("kernel-exchange", func(hp *sim.Process) {
		if !k.serviceCurrent(sess.Service) {
			// The session belongs to a dead incarnation of the service,
			// whose successor never heard of its ident: the client is
			// told the session is gone (callService would say the
			// service is), so it reopens one.
			k.replyErr(hp, msg, kif.ErrNoSuchSession)
			return
		}
		var req kif.OStream
		req.U64(uint64(kif.ServExchange)).U64(sess.Ident)
		if obtain {
			req.U64(1)
		} else {
			req.U64(0)
		}
		req.U64(capsCount).Blob(args)
		ris, cerr := k.callService(hp, sess.Service, req.Bytes(), obs.SpanID(msg.Span))
		if cerr != kif.OK {
			k.replyErr(hp, msg, cerr)
			return
		}
		serr := ris.ErrCode()
		srvStart := ris.Sel()
		srvCount := ris.U64()
		retArgs := ris.Blob()
		if serr != kif.OK {
			k.replyErr(hp, msg, serr)
			return
		}
		if vpe.exited || sess.Service.Owner.exited {
			// Client or service died while the exchange was in flight;
			// their tables are gone, nothing may be moved.
			k.replyErr(hp, msg, kif.ErrVPEGone)
			return
		}
		if srvCount > capsCount {
			srvCount = capsCount
		}
		k.compute(hp, CostPerCap*sim.Time(srvCount+1))
		owner := sess.Service.Owner.Caps
		var xerr kif.Error = kif.OK
		if srvCount > 0 {
			if obtain {
				xerr = exchangeCaps(owner, vpe.Caps, srvStart, capsStart, srvCount)
			} else {
				xerr = exchangeCaps(vpe.Caps, owner, capsStart, srvStart, srvCount)
			}
		}
		if xerr != kif.OK {
			k.replyErr(hp, msg, xerr)
			return
		}
		var o kif.OStream
		o.Err(kif.OK).Blob(retArgs)
		k.reply(hp, msg, &o)
	})
}
