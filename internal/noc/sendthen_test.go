package noc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// refSend is the reference SendThen is checked against: a process-based
// hop engine in which the sending process itself waits for each link,
// sleeps through each router latency and the body's drain, and
// delivers.
func refSend(n *Network, p *sim.Process, pkt *Packet) {
	n.PacketsSent++
	n.BytesSent += uint64(pkt.Size)
	ser := n.SerializationTime(pkt.Size)
	dropped := false
	for cur := pkt.Src; cur != pkt.Dst; {
		next := n.nextHop(cur, pkt.Dst)
		l := n.link(cur, next)
		if l != nil {
			l.res.Acquire(p, 1)
			n.eng.Schedule(n.cfg.HopLatency+ser, l.release)
		}
		p.Sleep(n.cfg.HopLatency)
		if !dropped {
			dropped = n.applyFault(cur, next, pkt)
		}
		cur = next
	}
	p.Sleep(ser)
	if dropped {
		if pkt.Seq == 0 {
			n.FreePacket(pkt)
		}
		return
	}
	n.handlers[pkt.Dst].Deliver(pkt)
	n.finishDelivery(pkt)
}

// meshLoad is one seeded traffic pattern on a contended mesh: senders
// push packets after random gaps, some senders are killed mid-stream,
// and a seeded fault hook drops and corrupts packets.
type meshLoad struct {
	cfg     Config
	senders []meshSender
}

type meshSender struct {
	src    NodeID
	pkts   []meshPkt
	killAt sim.Time // 0: never killed
}

type meshPkt struct {
	gap  sim.Time
	dst  NodeID
	size int
}

func newMeshLoad(seed uint64) meshLoad {
	rng := sim.NewRand(seed)
	l := meshLoad{cfg: Config{Width: 2 + rng.Intn(4), Height: 1 + rng.Intn(4), Torus: rng.Intn(4) == 0}}
	nodes := l.cfg.Width * l.cfg.Height
	for i := 0; i < 2+rng.Intn(10); i++ {
		s := meshSender{src: NodeID(rng.Intn(nodes))}
		if rng.Intn(3) == 0 {
			s.killAt = sim.Time(1 + rng.Intn(300))
		}
		for j := 0; j < rng.Intn(25); j++ {
			s.pkts = append(s.pkts, meshPkt{
				gap:  sim.Time(rng.Intn(4) * rng.Intn(8)),
				dst:  NodeID(rng.Intn(nodes)),
				size: 1 + rng.Intn(300),
			})
		}
		l.senders = append(l.senders, s)
	}
	return l
}

// run drives the load through send and returns the delivery log and
// the run's witness.
func (l meshLoad) run(send func(n *Network, p *sim.Process, pkt *Packet)) (log []string, events uint64, end sim.Time) {
	e := sim.NewEngine()
	n := New(e, l.cfg)
	for id := 0; id < n.Nodes(); id++ {
		n.Attach(NodeID(id), HandlerFunc(func(pkt *Packet) {
			log = append(log, fmt.Sprintf("%d: %v at %d corrupt=%v", e.Now(), pkt.Payload, id, pkt.Corrupt))
		}))
	}
	n.SetFaultHook(func(from, to NodeID, pkt *Packet) LinkFault {
		switch sim.Hash(uint64(from), uint64(to), uint64(e.Now()), uint64(pkt.Size)) % 50 {
		case 0:
			return LinkDrop
		case 1:
			return LinkCorrupt
		}
		return LinkOK
	})
	for i, s := range l.senders {
		p := e.Spawn("sender", func(p *sim.Process) {
			for j, m := range s.pkts {
				p.Sleep(m.gap)
				pkt := n.NewPacket()
				pkt.Src, pkt.Dst, pkt.Size = s.src, m.dst, m.size
				pkt.Payload = fmt.Sprintf("s%d/%d", i, j)
				send(n, p, pkt)
				log = append(log, fmt.Sprintf("%d: s%d sent %d", e.Now(), i, j))
			}
		})
		if s.killAt != 0 {
			e.Schedule(s.killAt, p.Kill)
		}
	}
	end = e.Run()
	log = append(log, fmt.Sprintf("sent %d bytes %d dropped %d corrupted %d",
		n.PacketsSent, n.BytesSent, n.PacketsDropped, n.PacketsCorrupted))
	return log, e.ExecutedEvents(), end
}

// TestSendThenMatchesProcessHops: Send, which on a contended mesh is
// SendThen plus one park, schedules event for event what the per-hop
// process engine did, with link queueing, fault injection and senders
// killed at hops and in link queues.
func TestSendThenMatchesProcessHops(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		l := newMeshLoad(seed)
		refLog, refEvents, refEnd := l.run(refSend)
		log, events, end := l.run((*Network).Send)
		if !reflect.DeepEqual(log, refLog) || events != refEvents || end != refEnd {
			t.Fatalf("seed %d (%+v): SendThen ran %d events to %d, reference %d to %d\nSendThen:  %v\nreference: %v",
				seed, l.cfg, events, end, refEvents, refEnd, log, refLog)
		}
	}
}

// TestKillAtHopDeliversNothing: a sender killed while its packet is
// between routers delivers nothing, and the link it held is released
// on schedule, so the next packet passes.
func TestKillAtHopDeliversNothing(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 4, Height: 1})
	var got []string
	n.Attach(3, HandlerFunc(func(pkt *Packet) {
		got = append(got, fmt.Sprintf("%v@%d", pkt.Payload, eng.Now()))
	}))
	victim := eng.Spawn("victim", func(p *sim.Process) {
		n.Send(p, &Packet{Src: 0, Dst: 3, Size: 8, Payload: "victim"})
		got = append(got, "victim resumed")
	})
	// Head at node 1 after 3 cycles: kill it on its way to node 2.
	eng.Schedule(4, victim.Kill)
	eng.Spawn("next", func(p *sim.Process) {
		p.Sleep(1)
		n.Send(p, &Packet{Src: 0, Dst: 3, Size: 8, Payload: "next"})
	})
	eng.Run()
	// The link 0→1 stays busy for latency+serialization = 4 cycles,
	// so "next" enters at 4: 3 hops × 3 + 1 = 10 later.
	if want := []string{"next@14"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	for _, l := range n.links {
		if l != nil && (l.res.InUse() != 0 || l.res.QueueLen() != 0) {
			t.Fatal("a link is still held or queued after the run")
		}
	}
}

// TestKillQueuedOnLinkPassesUnit: a sender killed while queued for a
// contended link delivers nothing, and the link unit goes to the
// waiter behind it, exactly when the holder releases it.
func TestKillQueuedOnLinkPassesUnit(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	var got []string
	n.Attach(1, HandlerFunc(func(pkt *Packet) {
		got = append(got, fmt.Sprintf("%v@%d", pkt.Payload, eng.Now()))
	}))
	send := func(name string, at sim.Time, size int) *sim.Process {
		return eng.Spawn(name, func(p *sim.Process) {
			p.Sleep(at)
			n.Send(p, &Packet{Src: 0, Dst: 1, Size: size, Payload: name})
		})
	}
	send("holder", 0, 800) // holds the link for 3 + 100 cycles
	victim := send("victim", 1, 8)
	send("next", 2, 8)
	eng.Schedule(50, victim.Kill)
	eng.Run()
	// "next" takes the link at 103, when the holder releases it.
	if want := []string{"holder@103", "next@107"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

// TestSendThenHardwareCompletion: with a nil owner, SendThen runs done
// in the delivering event, right after the handler, and never inline.
func TestSendThenHardwareCompletion(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 3, Height: 1})
	var got []string
	n.Attach(2, HandlerFunc(func(pkt *Packet) { got = append(got, fmt.Sprintf("deliver@%d", eng.Now())) }))
	n.SendThen(nil, &Packet{Src: 0, Dst: 2, Size: 16}, func() { got = append(got, fmt.Sprintf("done@%d", eng.Now())) })
	if len(got) != 0 {
		t.Fatal("SendThen completed inline")
	}
	eng.Run()
	if want := []string{"deliver@8", "done@8"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// multiHop returns a function that sends one pooled packet corner to
// corner across a contended 4×4 mesh (6 hops) and runs it to delivery.
func multiHop() func() {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 4, Height: 4})
	n.Attach(15, HandlerFunc(func(pkt *Packet) {}))
	done := func() {}
	return func() {
		pkt := n.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = 0, 15, 64
		n.SendThen(nil, pkt, done)
		eng.Run()
	}
}

// TestSendThenAllocatesNothing: once the packet and flight pools, the
// links and the calendar wheel are warm, a multi-hop send allocates
// nothing.
func TestSendThenAllocatesNothing(t *testing.T) {
	send := multiHop()
	// Many turns of the calendar wheel: each bucket allocates its
	// backing array the first time it holds an event.
	for i := 0; i < 5000; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("a warm 6-hop send allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkSendThenMultiHop times one 64-byte packet across six hops
// of a contended mesh, injection to delivery.
func BenchmarkSendThenMultiHop(b *testing.B) {
	send := multiHop()
	send()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// TestFlightPoolHygiene: a finished flight returns to the pool holding
// no packet, owner or completion, and the next send reuses it.
func TestFlightPoolHygiene(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 3, Height: 1})
	n.Attach(2, HandlerFunc(func(pkt *Packet) {}))
	eng.Spawn("tx", func(p *sim.Process) {
		n.Send(p, &Packet{Src: 0, Dst: 2, Size: 8})
	})
	eng.Run()
	f := n.flights
	if f == nil || f.free != nil {
		t.Fatal("the finished flight is not the only pooled one")
	}
	if f.pkt != nil || f.owner != nil || f.done != nil || f.l != nil || f.dropped {
		t.Fatalf("pooled flight not scrubbed: %+v", f)
	}
	if f.onLink == nil || f.onHop == nil || f.onArrive == nil || f.onDeliver == nil {
		t.Fatal("pooled flight lost its prebuilt callbacks")
	}
	if n.newFlight() != f {
		t.Fatal("newFlight did not reuse the pooled flight")
	}
}
