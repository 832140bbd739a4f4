package dtu

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Errors returned by DTU operations. They model conditions the real
// hardware signals through status registers.
var (
	ErrBadEndpoint   = errors.New("dtu: endpoint misconfigured for this operation")
	ErrNoCredits     = errors.New("dtu: send denied, no credits left")
	ErrMsgTooLarge   = errors.New("dtu: message exceeds configured size")
	ErrNotPrivileged = errors.New("dtu: operation requires a privileged DTU")
	ErrPerms         = errors.New("dtu: memory endpoint permission denied")
	ErrBounds        = errors.New("dtu: access outside memory endpoint region")
	ErrNoReply       = errors.New("dtu: message does not permit a reply")
	ErrRemote        = errors.New("dtu: remote operation failed")
	// ErrTimeout reports a transfer or remote operation that stayed
	// unacknowledged through the whole retry budget. It only occurs
	// with fault injection enabled (see EnableFaults); the lossless
	// model never times out.
	ErrTimeout = errors.New("dtu: operation timed out")
)

// DTU is one data transfer unit instance, attached to a PE's core as a
// memory-mapped device and to the NoC as the PE's only external
// interface.
type DTU struct {
	eng  *sim.Engine
	net  *noc.Network
	node noc.NodeID
	spm  *mem.SPM

	eps        []epState
	privileged bool

	// MsgAvail fires whenever a message or reply arrives at any receive
	// endpoint; cores use it to model polling the DTU status register
	// without burning simulated host CPU.
	MsgAvail *sim.Signal
	// CreditAvail fires whenever credits are restored at any send
	// endpoint.
	CreditAvail *sim.Signal

	nextOp uint64
	// ops holds the operations in flight, in no particular order. Few
	// are ever outstanding at once, so a scan finds one, and the
	// stream of fresh op ids never grows or rehashes a table.
	ops []*pendingOp
	// opFree heads the freelist of completed operation records; each
	// keeps its done signal and timeout callback for the next
	// operation (see newOp).
	opFree *pendingOp
	// memFree heads the freelist of RDMA records (see memOp), cfgFree
	// that of remote-configuration records (see cfgOp) and probeFree
	// that of probe records (see probeOp).
	memFree   *memOp
	cfgFree   *cfgOp
	probeFree *probeOp

	// Reliability state, live only when faults is non-nil (see
	// EnableFaults): outstanding acknowledged transfers by sequence
	// number, received (sender, seq) pairs for duplicate suppression,
	// and the core-liveness callback probes read.
	faults     *FaultConfig
	nextSeq    uint64
	sends      map[uint64]*pendingSend
	seen       map[noc.NodeID]*dedupState
	coreStatus func() bool

	// reqs feeds the DTU's request server, a one-worker sim.Station
	// that serves incoming RDMA accesses to the local SPM, remote
	// configuration requests and liveness probes; served returns its
	// worker once a response was delivered. (reqs is an interface only
	// so the tests can stand the process-based reference server in.)
	reqs   interface{ Put(*noc.Packet) }
	served func()

	// msgFree heads this DTU's message freelist. A message is taken
	// here at Send/Reply and recycled into the receiving DTU's list
	// where it dies: at Ack (Reply acks too) once software freed its
	// ringbuffer slot, or on a receive-side drop path, where it never
	// entered a ringbuffer. Either way no other reference exists: the
	// reliable layer acked and deduplicated the carrying packet before
	// receive, so no retransmission resurrects the pointer, and
	// software must not keep the message or its Data past the Ack.
	msgFree *Message

	// waitingSince is the start of the core's in-progress DTU wait
	// (valid while waiting is true), so utilization measurements see
	// idle time that has not completed yet.
	waiting      bool
	waitingSince sim.Time

	// obs is the structured tracer (nil-safe; see package obs) and
	// curSpan the one-slot span register: software arms it with
	// StampSpan before issuing an operation, the DTU consumes it when
	// the message or transfer is actually built. The register survives
	// credit-denied retries because consumption happens only on the
	// successful attempt.
	obs     *obs.Tracer
	curSpan uint64

	// rxWatermark is the admission watermark of the receive endpoints
	// (SetRxWatermark); zero disarms admission control.
	rxWatermark int

	// Cached metric handles (nil-safe, inert without a tracer); the
	// registry entries are keyed by node id. The admission counter is
	// registered lazily on first increment — see overload.go.
	mCreditStalls  *obs.Counter
	mRetransmits   *obs.Counter
	mNacks         *obs.Counter
	mAdmitRefusals *obs.Counter

	Stats Stats
}

// Metric names this DTU registers, keyed by NoC node id (m3vet:
// obsname — names must stay package-level constants).
const (
	// MCreditStalls counts send attempts denied for lack of credits:
	// the paper's flow-control backpressure made visible.
	MCreditStalls = "dtu_credit_stalls_total"
	// MRetransmits counts reliability-layer retransmissions.
	MRetransmits = "dtu_retransmits_total"
	// MNacks counts NACKs this DTU sent for poisoned packets.
	MNacks = "dtu_nacks_total"
)

// SetObserver installs the structured tracer (wired by the platform)
// and registers the DTU's metrics with it.
func (d *DTU) SetObserver(tr *obs.Tracer) {
	d.obs = tr
	if tr.On() {
		m := tr.Metrics()
		d.mCreditStalls = m.Counter(MCreditStalls, int(d.node))
		d.mRetransmits = m.Counter(MRetransmits, int(d.node))
		d.mNacks = m.Counter(MNacks, int(d.node))
	}
}

// newMessage takes a message from the freelist (or the heap on a pool
// miss). The returned message is zeroed except for the fields the
// caller sets, and its Data is nil until setData fills it. It keeps
// its payload buffer from an earlier life, but that buffer was
// poisoned on free and setData overwrites every byte it exposes, so
// no receiver can observe another VPE's bytes through the pool.
func (d *DTU) newMessage() *Message {
	m := d.msgFree
	if m == nil {
		return &Message{}
	}
	d.msgFree = m.next
	m.next = nil
	m.acked = false
	return m
}

// freeMessage zeroes a dead message and returns it to the pool. Pool
// hygiene is absolute: no stale span, reply capability
// (replyNode/replyEP/replyLabel/creditEP), label, or data may survive
// — a leak here would hand the next receiver a forged reply
// capability or another VPE's payload (TestMessagePoolHygiene). The
// payload buffer is kept for reuse and filled with 0xAA, so a Data
// slice software held past the Ack decodes poison, not the next
// message. acked stays set while the message is pooled, so a repeated
// Ack or Reply of the dead message is refused instead of freeing it
// twice.
func (d *DTU) freeMessage(m *Message) {
	buf := m.buf
	for i := range buf {
		buf[i] = 0xAA
	}
	*m = Message{buf: buf[:0], acked: true, next: d.msgFree}
	d.msgFree = m
}

// StampSpan arms the span register: the next message or RDMA transfer
// this DTU builds carries the id in its header. Software calls it at
// the root of a request (syscall issue, service call).
func (d *DTU) StampSpan(span obs.SpanID) { d.curSpan = uint64(span) }

// takeSpan consumes the span register.
func (d *DTU) takeSpan() uint64 {
	s := d.curSpan
	d.curSpan = 0
	return s
}

// IdleCyclesAt returns the core's accumulated DTU-wait idle time as of
// now, including a wait still in progress.
func (d *DTU) IdleCyclesAt(now sim.Time) uint64 {
	idle := d.Stats.IdleCycles
	if d.waiting && now > d.waitingSince {
		idle += uint64(now - d.waitingSince)
	}
	return idle
}

// idleWait wraps a blocking signal wait with idle accounting.
func (d *DTU) idleWait(p *sim.Process, sig *sim.Signal) {
	t0 := d.eng.Now()
	d.waiting, d.waitingSince = true, t0
	sig.Wait(p)
	d.waiting = false
	d.Stats.IdleCycles += uint64(d.eng.Now() - t0)
}

// New creates a DTU for the PE at node, attaches it to the network, and
// starts its internal request server. All DTUs boot privileged (the
// paper: "all DTUs are privileged at boot"); the kernel downgrades
// application PEs during boot.
func New(eng *sim.Engine, net *noc.Network, node noc.NodeID, spm *mem.SPM, numEPs int) *DTU {
	d := newDTU(eng, net, node, spm, numEPs)
	reqs := sim.NewStation(eng, 1, d.serve)
	d.reqs, d.served = reqs, func() { reqs.Done(0) }
	return d
}

// newDTU builds the DTU and attaches it to the network, without a
// request server.
func newDTU(eng *sim.Engine, net *noc.Network, node noc.NodeID, spm *mem.SPM, numEPs int) *DTU {
	if numEPs <= 0 {
		numEPs = DefaultNumEndpoints
	}
	d := &DTU{
		eng:         eng,
		net:         net,
		node:        node,
		spm:         spm,
		eps:         make([]epState, numEPs),
		privileged:  true,
		MsgAvail:    sim.NewSignal(eng),
		CreditAvail: sim.NewSignal(eng),
		sends:       make(map[uint64]*pendingSend),
		seen:        make(map[noc.NodeID]*dedupState),
	}
	net.Attach(node, d)
	return d
}

// Node returns the NoC node this DTU is attached to.
func (d *DTU) Node() noc.NodeID { return d.node }

// Privileged reports the DTU's privilege state.
func (d *DTU) Privileged() bool { return d.privileged }

// SetPrivileged changes privilege locally (used by the platform at
// boot; at run time privilege changes travel as config packets).
func (d *DTU) SetPrivileged(v bool) { d.privileged = v }

// NumEndpoints returns the endpoint count.
func (d *DTU) NumEndpoints() int { return len(d.eps) }

// EP returns a copy of the endpoint registers (software-visible state).
func (d *DTU) EP(i int) Endpoint { return d.eps[i].Endpoint }

// Configure writes endpoint i's registers. Locally this requires a
// privileged DTU — application PEs were downgraded at boot and must ask
// the kernel instead.
func (d *DTU) Configure(i int, cfg Endpoint) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	return d.applyConfig(i, cfg)
}

func (d *DTU) applyConfig(i int, cfg Endpoint) error {
	if i < 0 || i >= len(d.eps) {
		return fmt.Errorf("%w: endpoint %d of %d", ErrBadEndpoint, i, len(d.eps))
	}
	if cfg.Type == EpReceive {
		if cfg.SlotSize <= HeaderSize || cfg.SlotCount <= 0 {
			return fmt.Errorf("%w: receive endpoint needs slots larger than the header", ErrBadEndpoint)
		}
		if cfg.BufAddr < 0 || cfg.BufAddr+cfg.BufSize() > d.spm.Size() {
			return fmt.Errorf("%w: ringbuffer outside SPM", ErrBounds)
		}
	}
	d.eps[i] = epState{Endpoint: cfg}
	d.Stats.ConfigsApplied++
	return nil
}

// Send transmits data through send endpoint ep. If replyEP >= 0 it
// names a local receive endpoint for the direct reply and replyLabel
// the label the reply will carry. The calling process is blocked for
// the NoC injection and delivery time (the paper's software then polls
// for the reply; see WaitMsg).
func (d *DTU) Send(p *sim.Process, ep int, data []byte, replyEP int, replyLabel uint64) error {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpSend {
		return ErrBadEndpoint
	}
	s := &d.eps[ep]
	if len(data) > s.MsgSize {
		return ErrMsgTooLarge
	}
	if s.Credits == 0 {
		d.Stats.SendsDenied++
		if tr := d.obs; tr.On() {
			d.mCreditStalls.Inc()
		}
		return ErrNoCredits
	}
	if replyEP >= 0 {
		if replyEP >= len(d.eps) || d.eps[replyEP].Type != EpReceive {
			return fmt.Errorf("%w: reply endpoint %d not a receive endpoint", ErrBadEndpoint, replyEP)
		}
	}
	if s.Credits != UnlimitedCredits {
		s.Credits--
	}
	msg := d.newMessage()
	msg.Label = s.Label
	msg.setData(data)
	msg.replyNode = d.node
	msg.replyEP = replyEP
	msg.replyLabel = replyLabel
	msg.creditEP = ep
	msg.Span = d.takeSpan()
	msg.sentAt = d.eng.Now()
	d.Stats.MsgsSent++
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvMsgSend, Span: obs.SpanID(msg.Span),
			Arg0: uint64(ep), Arg1: uint64(s.Target), Arg2: uint64(len(data))})
	}
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, s.Target, msgWireSize(len(data)), msg.Span
	msg.req = msgPacket{TargetEP: s.TargetEP, Msg: msg}
	pkt.Payload = &msg.req
	return d.transmit(p, pkt)
}

// RDMA direction tags for EvXferStart/End Arg0.
const (
	xferRead  = 1
	xferWrite = 2
)

// Reply sends data back to the sender of msg, which was fetched from
// receive endpoint ep. The reply restores one credit at the sender's
// send endpoint. Each message can be replied to once; replying also
// acks the message (frees its ringbuffer slot), so msg is dead once
// Reply returns. data may alias msg.Data: it is copied into the reply
// before the ack recycles msg.
func (d *DTU) Reply(p *sim.Process, ep int, msg *Message, data []byte) error {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpReceive {
		return ErrBadEndpoint
	}
	if msg.acked {
		return fmt.Errorf("%w: already replied or acked", ErrNoReply)
	}
	if !msg.CanReply() {
		return ErrNoReply
	}
	reply := d.newMessage()
	reply.Label = msg.replyLabel
	reply.setData(data)
	reply.replyNode = d.node
	reply.replyEP = -1
	reply.Span = msg.Span
	reply.sentAt = d.eng.Now()
	reply.rep = replyPacket{TargetEP: msg.replyEP, CreditEP: msg.creditEP, Msg: reply}
	dst := msg.replyNode
	d.Ack(ep, msg)
	d.Stats.Replies++
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvReplySend, Span: obs.SpanID(reply.Span),
			Arg0: uint64(ep), Arg1: uint64(dst), Arg2: uint64(len(data))})
	}
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, dst, msgWireSize(len(data)), reply.Span
	pkt.Payload = &reply.rep
	return d.transmit(p, pkt)
}

// Fetch returns the oldest unfetched message at receive endpoint ep, or
// nil if none arrived. The slot stays occupied until Ack or Reply.
func (d *DTU) Fetch(ep int) *Message {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpReceive {
		return nil
	}
	r := &d.eps[ep]
	if r.arrived.Len() == 0 {
		return nil
	}
	return r.arrived.Pop()
}

// Ack frees the ringbuffer slot of a fetched message (the software
// advancing the read position) and recycles the message: it belongs
// to its slot until the Ack, and neither it nor its Data may be used
// afterwards. Software that needs the payload longer copies it out
// first. Acking a message twice is a no-op.
func (d *DTU) Ack(ep int, msg *Message) {
	if msg.acked {
		return
	}
	if ep >= 0 && ep < len(d.eps) && d.eps[ep].Type == EpReceive {
		d.eps[ep].occupied--
	}
	d.freeMessage(msg)
}

// HasMsg reports whether receive endpoint ep holds an unfetched
// message.
func (d *DTU) HasMsg(ep int) bool {
	return ep >= 0 && ep < len(d.eps) && d.eps[ep].Type == EpReceive && d.eps[ep].arrived.Len() > 0
}

// WaitMsg blocks until one of the given receive endpoints (all receive
// endpoints if none are named) holds a message, then fetches and
// returns it together with the endpoint index. It models the core
// polling the DTU's message-status register.
func (d *DTU) WaitMsg(p *sim.Process, eps ...int) (*Message, int) {
	return d.waitMsg(p, eps, nil)
}

// WaitMsgDeadline is WaitMsg with a cycle budget: if no message arrives
// within deadline cycles it gives up and returns (nil, -1). A deadline
// of zero means no budget — the call is WaitMsg and, by the
// zero-extra-events discipline, schedules nothing.
func (d *DTU) WaitMsgDeadline(p *sim.Process, deadline sim.Time, eps ...int) (*Message, int) {
	return d.waitMsg(p, eps, d.expiry(deadline, d.MsgAvail))
}

// waitMsg is the one message-polling loop. A nil expired flag waits
// without bound.
func (d *DTU) waitMsg(p *sim.Process, eps []int, expired *bool) (*Message, int) {
	for {
		if len(eps) == 0 {
			// d.eps is a slice, so this scan is in fixed endpoint order
			// (lowest endpoint wins) — deterministic, unlike a map walk.
			for i := range d.eps {
				if m := d.Fetch(i); m != nil {
					return m, i
				}
			}
		} else {
			for _, i := range eps {
				if m := d.Fetch(i); m != nil {
					return m, i
				}
			}
		}
		if expired != nil && *expired {
			return nil, -1
		}
		d.idleWait(p, d.MsgAvail)
	}
}

// expiry arms a cycle budget for a wait on sig: it returns a flag the
// timer sets after deadline cycles, waking the waiters on sig so they
// re-check it. A zero deadline means no budget: it returns nil and
// schedules nothing.
func (d *DTU) expiry(deadline sim.Time, sig *sim.Signal) *bool {
	if deadline <= 0 {
		return nil
	}
	expired := new(bool)
	d.eng.Schedule(deadline, func() {
		// The waiter may long since have been served and moved on; the
		// broadcast then only causes other parked waiters to re-check
		// their predicates, which is harmless and deterministic.
		*expired = true
		sig.Broadcast()
	})
	return expired
}

// WaitCredits blocks until send endpoint ep has at least one credit.
// A nonzero deadline bounds the wait: if the endpoint regains no
// credit within deadline cycles it returns ErrTimeout. A zero deadline
// waits without bound and schedules nothing.
func (d *DTU) WaitCredits(p *sim.Process, ep int, deadline sim.Time) error {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpSend {
		return ErrBadEndpoint
	}
	expired := d.expiry(deadline, d.CreditAvail)
	for d.eps[ep].Credits == 0 {
		if expired != nil && *expired {
			return ErrTimeout
		}
		d.idleWait(p, d.CreditAvail)
	}
	return nil
}

// SendWait is Send for software that waits out credit stalls, as
// libm3 and the kernel do (§4.5.6): a send denied for lack of credits
// waits for a credit, bounded by deadline cycles per stall (zero: no
// bound), and retries. Each stall is bracketed by EvCreditStall and
// EvCreditOK under span, so the critical-path engine attributes the
// wait to queueing rather than compute. A stall that outlives its
// budget returns ErrNoCredits; every other error, including a wrapped
// ErrTimeout from a transmit that ran out of retries, is Send's own.
func (d *DTU) SendWait(p *sim.Process, ep int, data []byte, replyEP int, label uint64, deadline sim.Time, span obs.SpanID) error {
	for {
		err := d.Send(p, ep, data, replyEP, label)
		if !errors.Is(err, ErrNoCredits) {
			return err
		}
		if tr := d.obs; tr.On() {
			tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvCreditStall, Span: span, Arg0: uint64(ep)})
		}
		werr := d.WaitCredits(p, ep, deadline)
		if tr := d.obs; tr.On() {
			expired := uint64(0)
			if werr != nil {
				expired = 1
			}
			tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvCreditOK, Span: span, Arg0: uint64(ep), Arg2: expired})
		}
		if werr != nil {
			// Send just found ep a send endpoint, so the wait can only
			// have run out of budget.
			return ErrNoCredits
		}
	}
}

// Credits returns the remaining credits of send endpoint ep.
func (d *DTU) Credits(ep int) int { return d.eps[ep].Credits }

// ReadMem transfers len(buf) bytes from offset off of the memory region
// behind memory endpoint ep into buf (and conceptually into the local
// SPM). The calling process blocks until the data arrived — the
// paper's software polls a DTU register for transfer completion.
func (d *DTU) ReadMem(p *sim.Process, ep int, off int, buf []byte) error {
	m, err := d.memEP(ep, off, len(buf), PermRead)
	if err != nil {
		return err
	}
	span, t0 := d.takeSpan(), d.eng.Now()
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: t0, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferStart, Span: obs.SpanID(span),
			Arg0: xferRead, Arg1: uint64(len(buf))})
	}
	resp, err := d.doOp(p, func(op uint64) {
		r := d.newMemOp(op)
		r.read = MemReadReq{OpID: op, Src: d.node, Addr: m.MemAddr + off, Len: len(buf), Resp: &r.resp}
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, m.MemTarget, ctrlPacketSize, span
		pkt.Payload = &r.read
		d.net.Send(p, pkt)
	})
	if tr := d.obs; tr.On() {
		now := d.eng.Now()
		tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferEnd, Span: obs.SpanID(span),
			Arg0: xferRead, Arg1: uint64(len(buf))})
		tr.Hist(obs.HXfer).Observe(uint64(now - t0))
	}
	if err != nil {
		return err
	}
	// A remote error comes without data, so this copies nothing then.
	copy(buf, resp.resp.Data)
	d.net.FreePayload(resp.resp.Data)
	if err := d.memDone(resp.resp); err != nil {
		return err
	}
	d.Stats.MemReads++
	d.Stats.BytesRead += uint64(len(buf))
	return nil
}

// WriteMem transfers data to offset off of the memory region behind
// memory endpoint ep. It blocks until the target acknowledged the
// write.
func (d *DTU) WriteMem(p *sim.Process, ep int, off int, data []byte) error {
	m, err := d.memEP(ep, off, len(data), PermWrite)
	if err != nil {
		return err
	}
	span, t0 := d.takeSpan(), d.eng.Now()
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: t0, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferStart, Span: obs.SpanID(span),
			Arg0: xferWrite, Arg1: uint64(len(data))})
	}
	resp, err := d.doOp(p, func(op uint64) {
		// Every attempt snapshots the caller's bytes into its own
		// payload, which the target frees after storing it.
		buf := d.net.NewPayload(len(data))
		copy(buf, data)
		r := d.newMemOp(op)
		r.write = MemWriteReq{OpID: op, Src: d.node, Addr: m.MemAddr + off, Data: buf, Resp: &r.resp}
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, m.MemTarget, msgWireSize(len(data)), span
		pkt.Payload = &r.write
		d.net.Send(p, pkt)
	})
	if tr := d.obs; tr.On() {
		now := d.eng.Now()
		tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferEnd, Span: obs.SpanID(span),
			Arg0: xferWrite, Arg1: uint64(len(data))})
		tr.Hist(obs.HXfer).Observe(uint64(now - t0))
	}
	if err != nil {
		return err
	}
	if err := d.memDone(resp.resp); err != nil {
		return err
	}
	d.Stats.MemWrites++
	d.Stats.BytesWritten += uint64(len(data))
	return nil
}

// newMemOp takes an RDMA record from the freelist (or the heap on a
// miss) for operation op; its response carries the op id and is
// otherwise empty.
func (d *DTU) newMemOp(op uint64) *memOp {
	r := d.memFree
	if r == nil {
		r = &memOp{}
	} else {
		d.memFree, r.next = r.next, nil
	}
	r.resp = MemResp{OpID: op, op: r}
	return r
}

// freeMemOp clears an answered RDMA record, so that no payload or
// address outlives its operation, and returns it to the freelist.
func (d *DTU) freeMemOp(r *memOp) {
	*r = memOp{next: d.memFree}
	d.memFree = r
}

// memDone recycles an answered RDMA record, whose data the caller
// took, and returns the remote error it reported as ErrRemote.
func (d *DTU) memDone(resp *MemResp) error {
	var err error
	if resp.Err != "" {
		err = fmt.Errorf("%w: %s", ErrRemote, resp.Err)
	}
	d.freeMemOp(resp.op)
	return err
}

func (d *DTU) memEP(ep, off, n int, need Perm) (*epState, error) {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpMemory {
		return nil, ErrBadEndpoint
	}
	m := &d.eps[ep]
	if m.MemPerms&need == 0 {
		return nil, ErrPerms
	}
	if off < 0 || n < 0 || off+n > m.MemSize {
		return nil, ErrBounds
	}
	return m, nil
}

// GrantCredits restores credits at a send endpoint of the DTU at
// target without rewriting the whole endpoint: the paper's second
// refill path, "refilled by either the receiver (typically when
// replying) or an OS kernel" (§4.4.3). Privileged DTUs only.
func (d *DTU) GrantCredits(p *sim.Process, target noc.NodeID, sendEP, credits int) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	if credits <= 0 {
		return fmt.Errorf("%w: non-positive credit grant", ErrBadEndpoint)
	}
	// Credit grants are not idempotent — a duplicate would double the
	// grant — so they travel on the deduplicated reliable path rather
	// than the op-retry path.
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size = d.node, target, ctrlPacketSize
	pkt.Payload = &creditPacket{SendEP: sendEP, Credits: credits}
	return d.transmit(p, pkt)
}

// ConfigureRemote writes endpoint registers of the DTU at target. Only
// privileged DTUs may issue config packets; this is the kernel's
// mechanism for NoC-level isolation.
func (d *DTU) ConfigureRemote(p *sim.Process, target noc.NodeID, ep int, cfg Endpoint) error {
	return d.sendConfig(p, target, ConfigReq{EP: ep, Cfg: cfg})
}

// SetPrivilegedRemote up/downgrades the privilege of the DTU at target.
// The kernel downgrades all application PEs during boot.
func (d *DTU) SetPrivilegedRemote(p *sim.Process, target noc.NodeID, privileged bool) error {
	req := ConfigReq{SetPrivilege: -1}
	if privileged {
		req.SetPrivilege = 1
	}
	return d.sendConfig(p, target, req)
}

// sendConfig sends req, the endpoint or privilege fields filled in,
// to target; every attempt carries a copy in a record of its own.
func (d *DTU) sendConfig(p *sim.Process, target noc.NodeID, req ConfigReq) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	req.Src = d.node
	req.Privileged = true
	resp, err := d.doOp(p, func(op uint64) {
		r := d.cfgFree
		if r == nil {
			r = &cfgOp{}
		} else {
			d.cfgFree, r.next = r.next, nil
		}
		r.req, r.resp = req, ConfigResp{OpID: op, op: r}
		r.req.OpID, r.req.Resp = op, &r.resp
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = d.node, target, ctrlPacketSize+48 // register file on the wire
		pkt.Payload = &r.req
		d.net.Send(p, pkt)
	})
	if err != nil {
		return err
	}
	if msg := resp.cfg.Err; msg != "" {
		err = fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	r := resp.cfg.op
	*r = cfgOp{next: d.cfgFree}
	d.cfgFree = r
	return err
}

// newOp registers a fresh operation id with a pending record taken
// from the freelist (or the heap, with a new done signal, on a miss).
func (d *DTU) newOp() *pendingOp {
	d.nextOp++
	po := d.opFree
	if po == nil {
		po = &pendingOp{done: sim.NewSignal(d.eng)}
		po.onTimeout = func() { d.opTimedOut(po) }
	} else {
		d.opFree = po.next
		po.next = nil
	}
	po.id = d.nextOp
	d.ops = append(d.ops, po)
	return po
}

// findOp returns the pending record of operation op, or nil once the
// operation was deregistered.
func (d *DTU) findOp(op uint64) *pendingOp {
	for _, po := range d.ops {
		if po.id == op {
			return po
		}
	}
	return nil
}

// waitOp blocks until the operation's response arrived or, when
// timeout is nonzero, until the timeout expired, and returns what
// arrived. A response that lands in the same cycle as the expiry wins:
// the caller checks the response fields, not the timer. The operation
// is deregistered on return: op ids are never reused, so a late
// response, which looks its id up, cannot reach the record again. The
// record goes back to the freelist at once, or, while its timeout
// event is pending, when that event fires (opTimedOut), so the event
// never meets a later operation's record.
func (d *DTU) waitOp(p *sim.Process, po *pendingOp, timeout sim.Time) opResult {
	if timeout > 0 {
		po.timing = true
		d.eng.Schedule(timeout, po.onTimeout)
	}
	for !po.answered() && !po.expired {
		d.idleWait(p, po.done)
	}
	for i, q := range d.ops {
		if q == po {
			last := len(d.ops) - 1
			d.ops[i], d.ops[last] = d.ops[last], nil
			d.ops = d.ops[:last]
			break
		}
	}
	res := po.opResult
	po.id, po.expired, po.opResult = 0, false, opResult{}
	if !po.timing {
		d.freeOp(po)
	}
	return res
}

// opTimedOut is a record's timeout event. While the operation waits,
// it expires unless the response came in; once the operation is done
// (id 0), the timer was the last reference and the record is freed.
func (d *DTU) opTimedOut(po *pendingOp) {
	po.timing = false
	if po.id == 0 {
		d.freeOp(po)
		return
	}
	if !po.answered() {
		po.expired = true
		po.done.Broadcast()
	}
}

// freeOp returns a done operation record to the freelist.
func (d *DTU) freeOp(po *pendingOp) {
	po.next = d.opFree
	d.opFree = po
}

// Deliver implements noc.Handler: it is the DTU's NoC-facing side.
// Message and response packets are handled inline (the hardware writes
// the ringbuffer / completion registers without software involvement);
// RDMA and config requests are queued for the DTU's request server.
//
// The reliability preamble runs first: corrupted packets are poisoned
// (NACKed if they were sequence-numbered, silently discarded
// otherwise — retransmit and timeouts cover the loss), hardware
// acks/nacks complete pending transmits, and sequence-numbered
// transfers are acknowledged and deduplicated before any payload
// takes effect, so a retransmission whose original arrived cannot
// deliver twice.
func (d *DTU) Deliver(pkt *noc.Packet) {
	if pkt.Corrupt {
		d.Stats.Poisoned++
		if tr := d.obs; tr.On() {
			tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvPoisoned, Span: obs.SpanID(pkt.Span),
				Arg0: uint64(pkt.Src), Arg1: pkt.Seq})
		}
		if pkt.Seq != 0 {
			if tr := d.obs; tr.On() {
				d.mNacks.Inc()
			}
			d.sendCtrl(pkt.Src, &nackPacket{Seq: pkt.Seq})
		}
		return
	}
	switch pl := pkt.Payload.(type) {
	case *ackPacket:
		if ps, ok := d.sends[pl.Seq]; ok {
			ps.acked = true
			ps.done.Broadcast()
		}
		return
	case *nackPacket:
		if ps, ok := d.sends[pl.Seq]; ok && !ps.acked {
			ps.nacked = true
			ps.done.Broadcast()
		}
		return
	}
	if pkt.Seq != 0 {
		// Ack every copy — the previous ack may itself have been lost —
		// but deliver only the first.
		d.sendCtrl(pkt.Src, &ackPacket{Seq: pkt.Seq})
		if d.markSeen(pkt.Src, pkt.Seq) {
			d.Stats.DupsDropped++
			return
		}
	}
	switch pl := pkt.Payload.(type) {
	case *msgPacket:
		d.receive(pl.TargetEP, pl.Msg, true)
	case *replyPacket:
		if pl.CreditEP >= 0 && pl.CreditEP < len(d.eps) {
			s := &d.eps[pl.CreditEP]
			if s.Type == EpSend && s.Credits != UnlimitedCredits {
				s.Credits++
				d.CreditAvail.Broadcast()
			}
		}
		d.receive(pl.TargetEP, pl.Msg, false)
	case *creditPacket:
		if pl.SendEP >= 0 && pl.SendEP < len(d.eps) {
			s := &d.eps[pl.SendEP]
			if s.Type == EpSend && s.Credits != UnlimitedCredits {
				s.Credits += pl.Credits
				d.CreditAvail.Broadcast()
			}
		}
	case *MemReadReq, *MemWriteReq, *ConfigReq, *probeReq:
		// The packet outlives Deliver: the request server answers it
		// later. Take ownership from the network's pool.
		pkt.Retain = true
		d.reqs.Put(pkt)
	case *MemResp:
		if po := d.findOp(pl.OpID); po != nil {
			po.resp = pl
			po.done.Broadcast()
		}
	case *ConfigResp:
		if po := d.findOp(pl.OpID); po != nil {
			po.cfg = pl
			po.done.Broadcast()
		}
	case *probeResp:
		if po := d.findOp(pl.OpID); po != nil {
			po.probe = pl
			po.done.Broadcast()
		}
	default:
		panic(fmt.Sprintf("dtu: unknown packet payload %T", pkt.Payload))
	}
}

// receive places a message into the ringbuffer of receive endpoint ep,
// writing it into the SPM like the hardware does, or drops it when the
// buffer is full or the endpoint is not receiving. isRequest separates
// request messages from replies: only requests are subject to the
// admission watermark — a reply's slot was budgeted by the requester's
// credit, and refusing it would strand the caller.
func (d *DTU) receive(ep int, msg *Message, isRequest bool) {
	// The drop paths recycle the message: it was never inserted into a
	// ringbuffer, the reliable layer acked and deduplicated the carrying
	// packet before receive, and no other reference exists.
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpReceive {
		d.Stats.MsgsDropped++
		d.freeMessage(msg)
		return
	}
	r := &d.eps[ep]
	if d.rxWatermark > 0 && isRequest && !d.admit(ep, r, msg) {
		return
	}
	if r.occupied >= r.SlotCount || HeaderSize+len(msg.Data) > r.SlotSize {
		d.Stats.MsgsDropped++
		d.freeMessage(msg)
		return
	}
	slot := r.nextSlot
	// Find a free slot; occupied < SlotCount guarantees one exists.
	r.nextSlot = (r.nextSlot + 1) % r.SlotCount
	msg.slot = slot
	if err := d.spm.Write(r.BufAddr+slot*r.SlotSize+HeaderSize, msg.Data); err != nil {
		d.Stats.MsgsDropped++
		d.freeMessage(msg)
		return
	}
	r.occupied++
	r.arrived.Push(msg)
	d.Stats.MsgsReceived++
	if tr := d.obs; tr.On() {
		now := d.eng.Now()
		tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvMsgRecv, Span: obs.SpanID(msg.Span),
			Arg0: uint64(ep), Arg1: uint64(len(msg.Data)), Arg2: msg.Label})
		if now >= msg.sentAt {
			tr.Hist(obs.HMsgLatency).Observe(uint64(now - msg.sentAt))
		}
	}
	d.MsgAvail.Broadcast()
}

// serve is the DTU's request server: it handles one incoming RDMA
// access to the local SPM, remote configuration write, or liveness
// probe, and sends the response. It is hardware, so it runs as a
// Station callback; the worker is returned once the response was
// delivered.
func (d *DTU) serve(_ int, pkt *noc.Packet) {
	out := d.net.NewPacket()
	switch req := pkt.Payload.(type) {
	case *MemReadReq:
		buf := d.net.NewPayload(req.Len)
		resp := req.Resp
		if err := d.spm.Read(req.Addr, buf); err != nil {
			resp.Err = err.Error()
			d.net.FreePayload(buf)
		} else {
			resp.Data = buf
		}
		out.Src, out.Dst, out.Size = d.node, req.Src, msgWireSize(len(resp.Data))
		out.Payload = resp
	case *MemWriteReq:
		resp := req.Resp
		if err := d.spm.Write(req.Addr, req.Data); err != nil {
			resp.Err = err.Error()
		}
		d.net.FreePayload(req.Data)
		out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
		out.Payload = resp
	case *ConfigReq:
		resp := req.Resp
		if !req.Privileged {
			resp.Err = ErrNotPrivileged.Error()
		} else if req.SetPrivilege != 0 {
			d.privileged = req.SetPrivilege > 0
		} else if err := d.applyConfig(req.EP, req.Cfg); err != nil {
			resp.Err = err.Error()
		} else {
			if tr := d.obs; tr.On() {
				tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
					Kind: obs.EvConfig, Arg0: uint64(req.EP), Arg1: uint64(req.Src)})
			}
		}
		out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
		out.Payload = resp
	case *probeReq:
		// The DTU answers for its core: it is a separate hardware
		// block and keeps serving the NoC after a core crash.
		req.Resp.Crashed = d.coreStatus != nil && d.coreStatus()
		out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
		out.Payload = req.Resp
	}
	d.net.FreePacket(pkt)
	d.net.SendThen(nil, out, d.served)
}
