// Package noc models the packet-switched network-on-chip that connects
// the processing elements and the DRAM tile.
//
// The network is a 2D mesh with dimension-ordered (XY) routing. The
// timing model is virtual cut-through: a packet's head pays a fixed
// per-hop router latency, the body streams at the link bandwidth, and
// each traversed link stays busy for the packet's serialization time.
// Under no contention the end-to-end latency of an S-byte packet over h
// hops is h*HopLatency + ceil(S/LinkBytesPerCycle) cycles — which gives
// the DTU its 8 bytes/cycle streaming bandwidth from the paper.
package noc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies a mesh node: y*Width + x.
type NodeID int

// Packet is one network transfer. Size covers everything on the wire
// (header + payload). Payload is the semantic content interpreted by
// the destination's handler (a DTU message, an RDMA request, ...).
//
// Seq and Corrupt exist for the reliability layer: Seq is a nonzero
// sender-assigned sequence number on transfers that want end-to-end
// acknowledgement (zero means fire-and-forget), and Corrupt marks a
// packet whose header was damaged in flight by fault injection — the
// payload pointer survives in the model, but receivers must treat the
// packet as poisoned.
type Packet struct {
	Src, Dst NodeID
	Size     int
	Payload  any
	Seq      uint64
	Corrupt  bool

	// Span is the causal trace id of the request this packet belongs
	// to (zero: none). The DTU stamps it from the message header so
	// the observability layer can reconstruct a request's NoC flights.
	Span uint64

	// Retain transfers ownership of a delivered fire-and-forget packet
	// (Seq == 0) to the handler: the network then does not recycle it
	// after Deliver returns, and the handler must call FreePacket once
	// done. Handlers that queue the packet for later processing (the
	// DTU's request server) set it inside Deliver. See FreePacket for
	// the full ownership rules.
	Retain bool

	// next links the network's packet freelist.
	next *Packet
}

// LinkFault is a fault-injection verdict for one packet at one hop.
type LinkFault uint8

// Link fault verdicts.
const (
	// LinkOK passes the packet through unharmed.
	LinkOK LinkFault = iota
	// LinkDrop loses the packet at this hop: it pays full wire timing
	// up to and including the hop but is never delivered.
	LinkDrop
	// LinkCorrupt damages the packet's header; it is delivered with
	// Corrupt set and the receiver decides (NACK, drop, ...).
	LinkCorrupt
)

// FaultHook inspects a packet about to traverse the link from→to and
// returns a verdict. Hooks run in deterministic per-hop order along
// the route, so a seeded RNG consulted inside the hook yields a
// replayable fault schedule. Only internal/fault may install hooks
// (enforced by m3vet's faultsite rule).
type FaultHook func(from, to NodeID, pkt *Packet) LinkFault

// Handler consumes packets delivered at a node. Deliver runs in engine
// context and must not block; implementations hand work that needs
// simulated time to a sim.Station or wake a process via a signal.
type Handler interface {
	Deliver(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Deliver calls f(pkt).
func (f HandlerFunc) Deliver(pkt *Packet) { f(pkt) }

// Config parameterizes a mesh network.
type Config struct {
	Width, Height int
	// HopLatency is the per-router head latency in cycles (default 3).
	HopLatency sim.Time
	// LinkBytesPerCycle is the link (and thus DTU streaming) bandwidth
	// (default 8, the paper's DTU bandwidth).
	LinkBytesPerCycle int
	// Unlimited disables link contention: packets still pay latency and
	// serialization but never queue. Figure 6 uses this ("we assume the
	// NoC scales perfectly").
	Unlimited bool
	// Torus adds wrap-around links in both dimensions, halving the
	// worst-case hop count; routing stays dimension-ordered and picks
	// the shorter direction per dimension.
	Torus bool
}

// Network is a 2D-mesh NoC.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	handlers []Handler
	// links holds the contended directed links by LinkIndex, each
	// created at its first use (nil when Unlimited).
	links []*link
	fault FaultHook
	obs   *obs.Tracer

	// PacketsSent counts injected packets; BytesSent the wire bytes.
	PacketsSent uint64
	BytesSent   uint64
	// PacketsDropped and PacketsCorrupted count fault-injected losses
	// and header corruptions.
	PacketsDropped   uint64
	PacketsCorrupted uint64

	// free heads the packet freelist. All alloc/free sites run in
	// engine or process context under the strict hand-off, so a plain
	// list suffices.
	free *Packet
	// payloads is the free list of payloadClass-byte RDMA payload
	// buffers (NewPayload/FreePayload).
	payloads [][]byte
	// flights heads the freelist of in-transit packet states.
	flights *flight
}

// link is one contended directed link.
type link struct {
	res *sim.Resource
	// release frees the link once a packet's head and body passed. It
	// is built once, so a hop schedules no new closure.
	release func()
	// busy accumulates MLinkBusy (nil without a tracer).
	busy *obs.Counter
}

// payloadClass is the capacity of pooled payload buffers: one 4 KiB
// transfer, the unit file data moves in.
const payloadClass = 4 << 10

// New returns a mesh network with Width*Height nodes.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 3
	}
	if cfg.LinkBytesPerCycle == 0 {
		cfg.LinkBytesPerCycle = 8
	}
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		handlers: make([]Handler, cfg.Width*cfg.Height),
	}
	if !cfg.Unlimited {
		n.links = make([]*link, n.Nodes()*n.Nodes())
	}
	return n
}

// Metric names the network registers, keyed by LinkIndex (m3vet:
// obsname).
const (
	// MLinkBusy accumulates the cycles each directed link was occupied
	// by packet heads and bodies (router latency + serialization).
	MLinkBusy = "noc_link_busy_cycles_total"
)

// LinkIndex encodes the directed link from→to as a dense metric index.
func (n *Network) LinkIndex(from, to NodeID) int {
	return int(from)*n.Nodes() + int(to)
}

// LinkByIndex decodes a LinkIndex.
func (n *Network) LinkByIndex(i int) (from, to NodeID) {
	return NodeID(i / n.Nodes()), NodeID(i % n.Nodes())
}

// Config returns the network parameters.
func (n *Network) Config() Config { return n.cfg }

// NewPacket takes a zeroed packet from the network's pool (or the heap
// on a cold start). Senders on the hot path use it instead of a
// literal so steady-state traffic allocates nothing per packet.
//
// Ownership rules, enforced by TestPacketPoolHygiene and the
// differential harness:
//   - Seq != 0 (reliable transfers): the sender owns the packet across
//     delivery and retransmissions — delivery is synchronous in the
//     model, so no copy is ever in flight — and frees it when the
//     transfer completes or is abandoned.
//   - Seq == 0, delivered: the network frees it after Deliver returns,
//     unless the handler took ownership via Retain (it then frees after
//     consuming, e.g. the DTU request server after responding).
//   - Seq == 0, dropped by fault injection: the network frees it.
func (n *Network) NewPacket() *Packet {
	pkt := n.free
	if pkt == nil {
		return &Packet{}
	}
	n.free = pkt.next
	pkt.next = nil
	return pkt
}

// FreePacket zeroes pkt — pool hygiene: no stale payload, sequence
// number, span, fault flag, or Retain mark may survive on the freelist
// — and returns it to the pool. Freeing a packet that was never
// allocated from the pool is legal and grows the pool.
func (n *Network) FreePacket(pkt *Packet) {
	*pkt = Packet{next: n.free}
	n.free = pkt
}

// NewPayload returns a size-byte buffer for an in-flight RDMA payload.
// Requests up to 4 KiB take a buffer from the network's free list (or
// the heap on a cold start); larger ones always allocate. A pooled
// buffer still holds an earlier transfer's bytes: the caller must
// overwrite all size bytes before the buffer leaves it.
//
// Ownership rule: whoever copies the bytes out of a payload frees it
// with FreePayload — the memory tile or the target DTU after storing a
// write, DTU.ReadMem after copying a read response into the caller's
// buffer. Drop paths free nothing: a payload lost with its packet
// (dropped, corrupted, or answering an abandoned op) is left to the
// garbage collector, so no late copy can alias a reused buffer.
func (n *Network) NewPayload(size int) []byte {
	if size > payloadClass {
		return make([]byte, size)
	}
	if k := len(n.payloads) - 1; k >= 0 {
		b := n.payloads[k]
		n.payloads[k] = nil
		n.payloads = n.payloads[:k]
		return b[:size]
	}
	return make([]byte, size, payloadClass)
}

// FreePayload returns a payload buffer to the free list. Buffers of
// any other capacity are left to the garbage collector.
func (n *Network) FreePayload(b []byte) {
	if cap(b) == payloadClass {
		n.payloads = append(n.payloads, b[:payloadClass])
	}
}

// finishDelivery applies the fire-and-forget ownership rule after a
// packet was handed to its handler.
func (n *Network) finishDelivery(pkt *Packet) {
	if pkt.Seq == 0 && !pkt.Retain {
		n.FreePacket(pkt)
	}
}

// SetObserver installs the structured tracer (wired by the platform at
// build time; nil keeps observability off).
func (n *Network) SetObserver(tr *obs.Tracer) { n.obs = tr }

// Nodes returns the number of mesh nodes.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Attach registers the handler that consumes packets addressed to id.
func (n *Network) Attach(id NodeID, h Handler) {
	n.checkNode(id)
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("noc: node %d already attached", id))
	}
	n.handlers[id] = h
}

// XY returns the mesh coordinates of id.
func (n *Network) XY(id NodeID) (x, y int) {
	n.checkNode(id)
	return int(id) % n.cfg.Width, int(id) / n.cfg.Width
}

// ID returns the node id at mesh coordinates (x, y).
func (n *Network) ID(x, y int) NodeID {
	id := NodeID(y*n.cfg.Width + x)
	n.checkNode(id)
	return id
}

// Route returns the XY route from src to dst as the sequence of visited
// nodes, excluding src and including dst. An empty route means src ==
// dst (local delivery). On a torus, each dimension walks the shorter
// direction, wrapping around the edge.
func (n *Network) Route(src, dst NodeID) []NodeID {
	n.checkNode(src)
	n.checkNode(dst)
	var route []NodeID
	for cur := src; cur != dst; {
		cur = n.nextHop(cur, dst)
		route = append(route, cur)
	}
	return route
}

// nextHop returns the node after cur on the XY route to dst (cur !=
// dst): X first, then Y. Recomputing the direction at every hop picks
// the same one throughout, on a torus too, because each step only makes
// the chosen direction shorter. SendThen, SendAsync and Route all walk
// routes through it.
func (n *Network) nextHop(cur, dst NodeID) NodeID {
	w, h := n.cfg.Width, n.cfg.Height
	cx, cy := int(cur)%w, int(cur)/w
	dx, dy := int(dst)%w, int(dst)/w
	if cx != dx {
		return NodeID(cy*w + wrap(cx+n.step(cx, dx, w), w))
	}
	return NodeID(wrap(cy+n.step(cy, dy, h), h)*w + cx)
}

// step returns the per-hop delta (+1 or -1) to move from a to b along
// a dimension of the given extent.
func (n *Network) step(a, b, extent int) int {
	if a == b {
		return 0
	}
	forward := wrap(b-a, extent)
	if n.cfg.Torus && forward > extent-forward {
		return -1
	}
	if !n.cfg.Torus && b < a {
		return -1
	}
	return 1
}

func wrap(v, extent int) int {
	v %= extent
	if v < 0 {
		v += extent
	}
	return v
}

// Hops returns the number of router hops between src and dst.
func (n *Network) Hops(src, dst NodeID) int {
	sx, sy := n.XY(src)
	dx, dy := n.XY(dst)
	hx, hy := abs(sx-dx), abs(sy-dy)
	if n.cfg.Torus {
		if w := n.cfg.Width - hx; w < hx {
			hx = w
		}
		if w := n.cfg.Height - hy; w < hy {
			hy = w
		}
	}
	return hx + hy
}

// SerializationTime returns the cycles the body of a size-byte packet
// occupies a link.
func (n *Network) SerializationTime(size int) sim.Time {
	bpc := n.cfg.LinkBytesPerCycle
	return sim.Time((size + bpc - 1) / bpc)
}

// TransferTime returns the uncontended end-to-end latency of a
// size-byte packet from src to dst.
func (n *Network) TransferTime(src, dst NodeID, size int) sim.Time {
	return sim.Time(n.Hops(src, dst))*n.cfg.HopLatency + n.SerializationTime(size)
}

// Send injects pkt, blocking p for the end-to-end transfer time plus
// any link queueing, then delivers it to the destination handler. The
// calling process models the transfer engine pushing the packet (a DTU
// command).
//
// On a mesh without link contention, a flight whose whole window, from
// injection to arrival, is clear of other events rides with its sender
// (ride). Otherwise Send is SendThen with p as the owner and p's
// wake-up as the completion: the event that delivers the packet
// resumes p inline. A contended mesh never rides, because each hop's
// link release is an event due exactly at the packet's arrival.
func (n *Network) Send(p *sim.Process, pkt *Packet) {
	if n.links == nil && n.eng.Clear(n.TransferTime(pkt.Src, pkt.Dst, pkt.Size)) {
		n.ride(p, pkt)
		return
	}
	n.SendThen(p, pkt, p.Waker())
	p.Park()
}

// ride carries pkt to its destination in p, through a window that
// Send found clear: the flight SendThen would run, with each hop and
// the drain a Sleep that takes that event's place in the clock,
// without a coroutine switch. If anything run on the way (the fault
// hook, a tracer sink) queued an event inside the window, the Sleep it
// overtakes parks as usual, so the ride stays exact either way.
func (n *Network) ride(p *sim.Process, pkt *Packet) {
	n.inject(pkt)
	ser := n.SerializationTime(pkt.Size)
	dropped := false
	for cur := pkt.Src; cur != pkt.Dst; {
		next := n.nextHop(cur, pkt.Dst)
		if tr := n.obs; tr.On() {
			tr.Hist(obs.HLinkOcc).Observe(uint64(n.cfg.HopLatency + ser))
		}
		p.Sleep(n.cfg.HopLatency)
		if !dropped {
			dropped = n.applyFault(cur, next, pkt)
		}
		cur = next
	}
	p.Sleep(ser)
	n.arrive(pkt, dropped)
}

// SendThen injects pkt and moves it hop by hop as engine events: at
// each hop it waits for the contended link (FIFO, like Send), holds
// the link for the router latency plus the body's serialization, and
// pays the router latency; the body then drains into the destination,
// whose handler gets the packet, and done runs in that same event. A
// packet dropped by fault injection still pays the full wire time, and
// done still runs: the sending engine is blind to the loss.
//
// owner is the process on whose behalf the packet travels (nil for
// hardware, which never dies). If it is killed while the packet is at
// a hop or queued for a link, the packet goes no further: nothing is
// delivered, done never runs, and a queued link request is skipped so
// the link passes to the next waiter.
//
// SendThen never calls done inline: every transfer takes at least one
// event.
func (n *Network) SendThen(owner *sim.Process, pkt *Packet, done func()) {
	n.inject(pkt)
	f := n.newFlight()
	f.pkt, f.owner, f.done = pkt, owner, done
	f.cur, f.ser = pkt.Src, n.SerializationTime(pkt.Size)
	f.hop()
}

// inject counts pkt onto the wire and traces its injection.
func (n *Network) inject(pkt *Packet) {
	n.checkNode(pkt.Src)
	n.checkNode(pkt.Dst)
	n.PacketsSent++
	n.BytesSent += uint64(pkt.Size)
	if tr := n.obs; tr.On() && pkt.Span != 0 {
		tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Src), Layer: obs.LNoC,
			Kind: obs.EvPktInject, Span: obs.SpanID(pkt.Span),
			Arg0: uint64(pkt.Dst), Arg1: uint64(pkt.Size)})
	}
}

// flight is the pooled state of one packet in transit. Its callbacks
// are built once per object, so a hop schedules no new closure.
type flight struct {
	n       *Network
	pkt     *Packet
	owner   *sim.Process
	done    func()
	cur     NodeID
	next    NodeID
	l       *link
	ser     sim.Time
	dropped bool
	// onLink runs once the hop's link is held, onHop after the router
	// latency, onArrive once the body drained into the destination, and
	// onDeliver at the end of a SendAsync.
	onLink, onHop, onArrive, onDeliver func()
	// free links the network's flight freelist.
	free *flight
}

// newFlight takes a flight from the pool (or the heap on a cold
// start).
func (n *Network) newFlight() *flight {
	f := n.flights
	if f == nil {
		f = &flight{n: n}
		f.onLink, f.onHop, f.onArrive, f.onDeliver = f.linked, f.hopped, f.arrived, f.delivered
		return f
	}
	n.flights, f.free = f.free, nil
	return f
}

// release zeroes f (no packet, owner or completion survives on the
// freelist) and returns it to the pool.
func (f *flight) release() {
	n := f.n
	*f = flight{n: n, onLink: f.onLink, onHop: f.onHop, onArrive: f.onArrive, onDeliver: f.onDeliver, free: n.flights}
	n.flights = f
}

// hop starts the next hop, or the body's drain at the destination.
func (f *flight) hop() {
	n := f.n
	if f.cur == f.pkt.Dst {
		// Body drains into the destination. A dropped packet still
		// occupied the wire up to the faulty hop.
		n.eng.Schedule(f.ser, f.onArrive)
		return
	}
	f.next = n.nextHop(f.cur, f.pkt.Dst)
	f.l = n.link(f.cur, f.next)
	if f.l != nil {
		f.l.res.AcquireThen(f.owner, 1, f.onLink)
		return
	}
	f.linked()
}

// linked holds the link while the body streams through; the head
// moves on after the router latency.
func (f *flight) linked() {
	n := f.n
	occ := n.cfg.HopLatency + f.ser
	if f.l != nil {
		n.eng.Schedule(occ, f.l.release)
	}
	if tr := n.obs; tr.On() {
		tr.Hist(obs.HLinkOcc).Observe(uint64(occ))
		if f.l != nil {
			f.l.busy.Add(uint64(occ))
		}
	}
	n.eng.Schedule(n.cfg.HopLatency, f.onHop)
}

func (f *flight) hopped() {
	if f.owner != nil && f.owner.Dead() {
		f.release()
		return
	}
	if !f.dropped {
		f.dropped = f.n.applyFault(f.cur, f.next, f.pkt)
	}
	f.cur = f.next
	f.hop()
}

func (f *flight) arrived() {
	n, pkt, done, dropped := f.n, f.pkt, f.done, f.dropped
	dead := f.owner != nil && f.owner.Dead()
	f.release()
	if dead {
		return
	}
	n.arrive(pkt, dropped)
	done()
}

// arrive ends a flight whose body drained into its destination: the
// handler gets the packet, or a dropped fire-and-forget packet returns
// to the pool.
func (n *Network) arrive(pkt *Packet, dropped bool) {
	if dropped {
		if pkt.Seq == 0 {
			n.FreePacket(pkt)
		}
		return
	}
	h := n.handlers[pkt.Dst]
	if h == nil {
		panic(fmt.Sprintf("noc: packet for unattached node %d", pkt.Dst))
	}
	if tr := n.obs; tr.On() && pkt.Span != 0 {
		tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Dst), Layer: obs.LNoC,
			Kind: obs.EvPktDeliver, Span: obs.SpanID(pkt.Span),
			Arg0: uint64(pkt.Src), Arg1: uint64(pkt.Size)})
	}
	h.Deliver(pkt)
	n.finishDelivery(pkt)
}

// SendAsync injects pkt without a sending process: the packet pays the
// uncontended end-to-end latency and is delivered via one scheduled
// event. It models autonomous DTU control traffic (acknowledgements,
// NACKs) emitted from engine context. Unlike SendThen, it models no
// link occupancy for these few-byte control packets.
func (n *Network) SendAsync(pkt *Packet) {
	n.checkNode(pkt.Src)
	n.checkNode(pkt.Dst)
	n.PacketsSent++
	n.BytesSent += uint64(pkt.Size)
	dropped := false
	for cur := pkt.Src; cur != pkt.Dst && !dropped; {
		next := n.nextHop(cur, pkt.Dst)
		dropped = n.applyFault(cur, next, pkt)
		cur = next
	}
	if dropped {
		if pkt.Seq == 0 {
			n.FreePacket(pkt)
		}
		return
	}
	if n.handlers[pkt.Dst] == nil {
		panic(fmt.Sprintf("noc: packet for unattached node %d", pkt.Dst))
	}
	f := n.newFlight()
	f.pkt = pkt
	n.eng.Schedule(n.TransferTime(pkt.Src, pkt.Dst, pkt.Size), f.onDeliver)
}

// delivered ends a SendAsync: the destination's handler gets the
// packet, untraced like its injection.
func (f *flight) delivered() {
	n, pkt := f.n, f.pkt
	f.release()
	n.handlers[pkt.Dst].Deliver(pkt)
	n.finishDelivery(pkt)
}

// SetFaultHook installs (or, with nil, removes) the per-hop fault
// hook. Only internal/fault may call this (m3vet: faultsite).
func (n *Network) SetFaultHook(hook FaultHook) { n.fault = hook }

// applyFault consults the fault hook for one hop and applies the
// verdict. It reports whether the packet was dropped.
func (n *Network) applyFault(from, to NodeID, pkt *Packet) bool {
	if n.fault == nil {
		return false
	}
	switch n.fault(from, to, pkt) {
	case LinkDrop:
		n.PacketsDropped++
		if tr := n.obs; tr.On() {
			tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Src), Layer: obs.LNoC,
				Kind: obs.EvPktDrop, Span: obs.SpanID(pkt.Span),
				Arg0: uint64(pkt.Dst), Arg1: pkt.Seq,
				Arg2: uint64(from)<<32 | uint64(uint32(to))})
		}
		return true
	case LinkCorrupt:
		if !pkt.Corrupt {
			pkt.Corrupt = true
			n.PacketsCorrupted++
			if tr := n.obs; tr.On() {
				tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Src), Layer: obs.LNoC,
					Kind: obs.EvPktCorrupt, Span: obs.SpanID(pkt.Span),
					Arg0: uint64(pkt.Dst), Arg1: pkt.Seq,
					Arg2: uint64(from)<<32 | uint64(uint32(to))})
			}
		}
	}
	return false
}

// link returns the directed link from→to, or nil when contention
// modelling is disabled. A link and its metrics are created at first
// use, so metric registration follows traffic order.
func (n *Network) link(from, to NodeID) *link {
	if n.links == nil {
		return nil
	}
	idx := n.LinkIndex(from, to)
	l := n.links[idx]
	if l == nil {
		res := sim.NewResource(n.eng, 1)
		l = &link{res: res, release: func() { res.Release(1) }}
		n.links[idx] = l
		if tr := n.obs; tr.On() {
			l.busy = tr.Metrics().Counter(MLinkBusy, idx)
		}
	}
	return l
}

func (n *Network) checkNode(id NodeID) {
	if int(id) < 0 || int(id) >= len(n.handlers) {
		panic(fmt.Sprintf("noc: node %d out of range (mesh %dx%d)", id, n.cfg.Width, n.cfg.Height))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
