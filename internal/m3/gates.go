package m3

import (
	"errors"
	"fmt"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrNoFreeEP is returned when every multiplexable endpoint is pinned
// by a receive gate.
var ErrNoFreeEP = errors.New("m3: no free endpoint")

// epManager multiplexes the PE's free endpoints (FirstFreeEP and up)
// among the program's gates, since applications may hold more gates
// than endpoints exist (§4.5.4). Send and memory gates are re-activated
// on demand with LRU eviction; receive gates pin their endpoint.
type epManager struct {
	env   *Env
	gates []*gateBase // index 0 == kif.FirstFreeEP
	clock uint64
}

func newEPManager(e *Env) *epManager {
	n := e.Ctx.PE.DTU.NumEndpoints() - kif.FirstFreeEP
	return &epManager{env: e, gates: make([]*gateBase, n)}
}

// acquire makes sure g is bound to an endpoint and returns its index.
func (m *epManager) acquire(g *gateBase) (int, error) {
	m.clock++
	if g.ep >= 0 {
		g.lastUse = m.clock
		return g.ep, nil
	}
	victim := -1
	for i, cur := range m.gates {
		if cur == nil {
			victim = i
			break
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i, cur := range m.gates {
			if !cur.pinned && cur.lastUse < oldest {
				oldest = cur.lastUse
				victim = i
			}
		}
		if victim < 0 {
			return -1, ErrNoFreeEP
		}
		m.gates[victim].ep = -1
	}
	ep := victim + kif.FirstFreeEP
	if err := m.env.activate(g, ep); err != nil {
		return -1, err
	}
	m.gates[victim] = g
	g.ep = ep
	g.lastUse = m.clock
	return ep, nil
}

// release unbinds g (used when dropping a gate).
func (m *epManager) release(g *gateBase) {
	if g.ep >= 0 {
		m.gates[g.ep-kif.FirstFreeEP] = nil
		g.ep = -1
	}
}

// gateBase is the common state of all gate kinds.
type gateBase struct {
	env     *Env
	sel     kif.CapSel
	ep      int
	bufAddr int // receive gates only
	pinned  bool
	lastUse uint64
}

// Sel returns the gate's capability selector.
func (g *gateBase) Sel() kif.CapSel { return g.sel }

// EP returns the currently bound endpoint, or -1.
func (g *gateBase) EP() int { return g.ep }

// activate performs the activate system call for g on endpoint ep.
func (e *Env) activate(g *gateBase, ep int) error {
	o := e.sysOut.Reset()
	o.Op(kif.SysActivate).Sel(g.sel).I64(int64(ep)).U64(uint64(g.bufAddr))
	_, err := e.Syscall(o)
	return err
}

// RecvGate receives messages on a pinned endpoint backed by an SPM
// ringbuffer.
type RecvGate struct {
	gateBase
	SlotSize int
	Slots    int
}

// NewRecvGate creates and activates a receive gate with the given
// payload slot size and slot count.
func (e *Env) NewRecvGate(slotSize, slots int) (*RecvGate, error) {
	sel := e.AllocSel()
	o := e.sysOut.Reset()
	o.Op(kif.SysCreateRGate).Sel(sel).U64(uint64(slotSize)).U64(uint64(slots))
	if _, err := e.Syscall(o); err != nil {
		return nil, err
	}
	buf, err := e.allocRBuf((slotSize + dtu.HeaderSize) * slots)
	if err != nil {
		return nil, err
	}
	rg := &RecvGate{
		gateBase: gateBase{env: e, sel: sel, ep: -1, bufAddr: buf, pinned: true},
		SlotSize: slotSize,
		Slots:    slots,
	}
	if _, err := e.eps.acquire(&rg.gateBase); err != nil {
		return nil, err
	}
	return rg, nil
}

// NewSendGate creates a send gate for rg with the given label and
// credit limit, to be handed to senders via capability exchange.
func (rg *RecvGate) NewSendGate(label uint64, credits int) (kif.CapSel, error) {
	e := rg.env
	sel := e.AllocSel()
	o := e.sysOut.Reset()
	o.Op(kif.SysCreateSGate).Sel(sel).Sel(rg.sel).U64(label).I64(int64(credits))
	if _, err := e.Syscall(o); err != nil {
		return kif.InvalidSel, err
	}
	return sel, nil
}

// Recv blocks until a message arrives, bounded by the PE's armed call
// budget (DTU.CallDeadline): with a budget armed it returns nil once
// the budget expires first, so a sender that died surfaces instead of
// parking the receiver forever. Without one it never returns nil.
func (rg *RecvGate) Recv() *dtu.Message {
	d := rg.env.DTU()
	msg, _ := d.WaitMsgDeadline(rg.env.P(), d.CallDeadline(), rg.ep)
	return msg
}

// TryRecv fetches a pending message without blocking.
func (rg *RecvGate) TryRecv() *dtu.Message {
	return rg.env.DTU().Fetch(rg.ep)
}

// Reply answers msg; this also frees its ringbuffer slot and restores
// the sender's credit.
func (rg *RecvGate) Reply(msg *dtu.Message, data []byte) error {
	rg.env.Ctx.Compute(CostCallMarshal)
	return rg.env.DTU().Reply(rg.env.P(), rg.ep, msg, data)
}

// Ack frees msg's ringbuffer slot without replying.
func (rg *RecvGate) Ack(msg *dtu.Message) { rg.env.DTU().Ack(rg.ep, msg) }

// SendGate sends messages to a receive gate; obtained via capability
// exchange or created locally from one's own receive gate.
type SendGate struct {
	gateBase
	msgSize int
	// reply is the gate's copy of the last reply it returned, taken
	// before the reply's slot was acked and reused by the next one.
	reply []byte
}

// takeReply copies msg's payload into the gate's reply buffer, acks
// msg, and returns the copy, which stays valid until the gate's next
// call or collect. Empty replies come back as a non-nil empty slice.
func (sg *SendGate) takeReply(msg *dtu.Message) []byte {
	sg.reply = append(sg.reply[:0], msg.Data...)
	sg.env.DTU().Ack(kif.CallReplyEP, msg)
	if sg.reply == nil {
		return []byte{}
	}
	return sg.reply
}

// SendGateAt wraps an already-held send capability.
func (e *Env) SendGateAt(sel kif.CapSel) *SendGate {
	return &SendGate{gateBase: gateBase{env: e, sel: sel, ep: -1}}
}

// Send transmits data without expecting a reply. Its credit wait
// ignores the call budget: interrupt forwarding (InterruptProxy) must
// not drop a tick because the next handler is slow.
func (sg *SendGate) Send(data []byte) error {
	return sg.send(data, -1, 0, 0, 0)
}

// SendAsync transmits data and registers the reply under a fresh
// label, returned for a later CollectReply. Used by pipes to overlap
// transfers with computation. The credit wait honours the PE's armed
// call budget: a receiver that never restores credit makes the send
// fail with kif.ErrTimeout (wrapped) instead of blocking forever.
func (sg *SendGate) SendAsync(data []byte) (uint64, error) {
	label := sg.env.allocLabel()
	return label, sg.send(data, kif.CallReplyEP, label, sg.env.DTU().CallDeadline(), 0)
}

// send transmits data, waiting out credit stalls for at most deadline
// cycles each (zero: without bound).
func (sg *SendGate) send(data []byte, replyEP int, label uint64, deadline sim.Time, span obs.SpanID) error {
	e := sg.env
	ep, err := e.eps.acquire(&sg.gateBase)
	if err != nil {
		return err
	}
	// Arm the span register only after acquire: activating the gate may
	// itself issue syscalls, which root their own spans. The DTU
	// consumes the register on the successful send, so credit-denied
	// retries keep the id.
	if span != 0 {
		e.DTU().StampSpan(span)
	}
	err = e.DTU().SendWait(e.P(), ep, data, replyEP, label, deadline, span)
	if errors.Is(err, dtu.ErrNoCredits) {
		// A receiver that never restores credit is as dead as one that
		// never replies.
		return fmt.Errorf("m3: gate send: %w", kif.ErrTimeout)
	}
	if err != nil {
		return fmt.Errorf("m3: gate send: %w", err)
	}
	return nil
}

// Drop unbinds the gate from its endpoint, if bound. Session recovery
// uses it to retire the send gate of a dead service incarnation so the
// slot is immediately reusable.
func (sg *SendGate) Drop() { sg.env.eps.release(&sg.gateBase) }

// TrySend transmits data without blocking on credits: if the channel
// is exhausted it returns dtu.ErrNoCredits immediately. The reply (if
// the receiver sends one, e.g. an interrupt acknowledge) restores the
// credit in hardware without the sender fetching it.
func (sg *SendGate) TrySend(data []byte) error {
	e := sg.env
	ep, err := e.eps.acquire(&sg.gateBase)
	if err != nil {
		return err
	}
	return e.DTU().Send(e.P(), ep, data, kif.CallReplyEP, e.allocLabel())
}

// Call sends data and waits for the reply (the common synchronous
// pattern libm3 builds on top of asynchronous DTU messaging, §4.5.6).
// The reply is valid until the gate's next call or collect.
//
// Both wait points — credits and reply — honour the PE's armed call
// budget (DTU.CallDeadline, set by the fault plan): if the receiver
// neither accepts nor answers in time Call returns kif.ErrTimeout
// (wrapped) and abandons the reply label, so a late answer is acked
// instead of leaking a ringbuffer slot. With no budget armed the waits
// are unbounded and schedule no deadline events. A request the
// receiving DTU refuses at its admission watermark (docs/OVERLOAD.md)
// returns kif.ErrOverload (wrapped) after one round trip; Call does
// not retry it.
func (sg *SendGate) Call(data []byte) ([]byte, error) {
	e := sg.env
	e.Ctx.Compute(CostCallMarshal)
	deadline := e.DTU().CallDeadline()
	label := e.allocLabel()
	// A client service call roots its own causal span, like a syscall.
	var span obs.SpanID
	tr := e.Ctx.PE.Obs()
	if tr.On() {
		span = tr.NewSpan()
		tr.Emit(obs.Event{At: e.Ctx.Now(), PE: int32(e.Ctx.PE.Node), Layer: obs.LApp,
			Kind: obs.EvSvcCallStart, Span: span,
			Arg0: label, Arg1: uint64(len(data))})
	}
	err := sg.send(data, kif.CallReplyEP, label, deadline, span)
	if err != nil {
		if tr.On() {
			tr.Emit(obs.Event{At: e.Ctx.Now(), PE: int32(e.Ctx.PE.Node), Layer: obs.LApp,
				Kind: obs.EvSvcCallEnd, Span: span, Arg0: label, Arg1: 1})
		}
		return nil, err
	}
	msg := e.recvReply(label, deadline)
	if tr.On() {
		fail := uint64(0)
		if msg == nil || msg.Overloaded() {
			fail = 1
		}
		tr.Emit(obs.Event{At: e.Ctx.Now(), PE: int32(e.Ctx.PE.Node), Layer: obs.LApp,
			Kind: obs.EvSvcCallEnd, Span: span, Arg0: label, Arg1: fail})
	}
	if msg == nil {
		e.DiscardReply(label)
		return nil, fmt.Errorf("m3: call reply: %w", kif.ErrTimeout)
	}
	if msg.Overloaded() {
		e.DTU().Ack(kif.CallReplyEP, msg)
		return nil, fmt.Errorf("m3: call refused: %w", kif.ErrOverload)
	}
	e.Ctx.Compute(CostCallUnmarshal)
	return sg.takeReply(msg), nil
}

// CollectReply waits for the reply to a SendAsync identified by label,
// bounded by the PE's armed call budget: on expiry it abandons the
// label (a late reply is acked, not leaked) and returns kif.ErrTimeout
// wrapped. A reply is valid until the gate's next call or collect.
func (sg *SendGate) CollectReply(label uint64) ([]byte, error) {
	e := sg.env
	msg := e.recvReply(label, e.DTU().CallDeadline())
	if msg == nil {
		e.DiscardReply(label)
		return nil, fmt.Errorf("m3: collect reply: %w", kif.ErrTimeout)
	}
	if msg.Overloaded() {
		e.DTU().Ack(kif.CallReplyEP, msg)
		return nil, fmt.Errorf("m3: collect reply refused: %w", kif.ErrOverload)
	}
	return sg.takeReply(msg), nil
}

// TryCollectReply polls for the reply to a SendAsync identified by
// label and returns nil when it has not arrived; a reply is valid
// until the gate's next call or collect.
func (sg *SendGate) TryCollectReply(label uint64) []byte {
	msg := sg.env.tryRecvReply(label)
	if msg == nil {
		return nil
	}
	return sg.takeReply(msg)
}

// MemGate provides RDMA access to a memory region through a memory
// capability.
type MemGate struct {
	gateBase
	size int
}

// MemGateAt wraps an already-held memory capability of the given size.
func (e *Env) MemGateAt(sel kif.CapSel, size int) *MemGate {
	return &MemGate{gateBase: gateBase{env: e, sel: sel, ep: -1}, size: size}
}

// Size returns the region size in bytes.
func (mg *MemGate) Size() int { return mg.size }

// Drop unbinds the gate from its endpoint, if bound (see
// SendGate.Drop).
func (mg *MemGate) Drop() { mg.env.eps.release(&mg.gateBase) }

// Derive creates a sub-range memory gate with equal or fewer
// permissions.
func (mg *MemGate) Derive(off, size int, perms dtu.Perm) (*MemGate, error) {
	e := mg.env
	sel := e.AllocSel()
	o := e.sysOut.Reset()
	o.Op(kif.SysDeriveMem).Sel(mg.sel).Sel(sel).U64(uint64(off)).U64(uint64(size)).U64(uint64(perms))
	if _, err := e.Syscall(o); err != nil {
		return nil, err
	}
	return e.MemGateAt(sel, size), nil
}

// Read transfers len(buf) bytes from region offset off into buf via
// the DTU.
func (mg *MemGate) Read(buf []byte, off int) error {
	e := mg.env
	ep, err := e.eps.acquire(&mg.gateBase)
	if err != nil {
		return err
	}
	e.Ctx.Compute(CostMemOp)
	return e.DTU().ReadMem(e.P(), ep, off, buf)
}

// Write transfers buf to region offset off via the DTU.
func (mg *MemGate) Write(buf []byte, off int) error {
	e := mg.env
	ep, err := e.eps.acquire(&mg.gateBase)
	if err != nil {
		return err
	}
	e.Ctx.Compute(CostMemOp)
	return e.DTU().WriteMem(e.P(), ep, off, buf)
}
