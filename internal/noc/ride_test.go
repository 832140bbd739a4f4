package noc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// parkedSend is the reference Send is checked against on a mesh
// without link contention: every flight runs as SendThen's engine
// events and parks its sender until the delivering event resumes it.
func parkedSend(n *Network, p *sim.Process, pkt *Packet) {
	n.SendThen(p, pkt, p.Waker())
	p.Park()
}

// rideLoad is one seeded mix on an uncontended mesh: senders push
// packets of 64 B to 4 KiB after random gaps, host callbacks and kills
// land inside some flights' windows, and the run advances in RunUntil
// windows before it drains.
type rideLoad struct {
	cfg     Config
	senders []meshSender
	// callbacks are host events scheduled at the given cycles; each
	// makes the flights it falls into busy.
	callbacks []sim.Time
	windows   []sim.Time
}

func newRideLoad(seed uint64) rideLoad {
	rng := sim.NewRand(seed)
	l := rideLoad{cfg: Config{Width: 2 + rng.Intn(4), Height: 1 + rng.Intn(4), Unlimited: true, Torus: rng.Intn(4) == 0}}
	nodes := l.cfg.Width * l.cfg.Height
	for i := 0; i < 1+rng.Intn(6); i++ {
		s := meshSender{src: NodeID(rng.Intn(nodes))}
		if rng.Intn(3) == 0 {
			s.killAt = sim.Time(1 + rng.Intn(3000))
		}
		for j := 0; j < rng.Intn(30); j++ {
			s.pkts = append(s.pkts, meshPkt{
				gap:  sim.Time(rng.Intn(3) * rng.Intn(600)),
				dst:  NodeID(rng.Intn(nodes)),
				size: 64 + rng.Intn(4033),
			})
		}
		l.senders = append(l.senders, s)
	}
	for i := 0; i < rng.Intn(20); i++ {
		l.callbacks = append(l.callbacks, sim.Time(rng.Intn(8000)))
	}
	var limit sim.Time
	for i := 0; i < rng.Intn(6); i++ {
		limit += sim.Time(rng.Intn(2000))
		l.windows = append(l.windows, limit)
	}
	return l
}

// rideRun is what one run of a rideLoad observably did.
type rideRun struct {
	log      []string // "time actor ..." per step and delivery
	events   []obs.Event
	linkOcc  obs.Histogram
	executed uint64
	seq      uint64
	resumes  uint64
	end      sim.Time
	// clear counts the sends that found their whole window clear.
	clear uint64
}

// run drives l through send with a seeded fault hook and a tracer.
func (l rideLoad) run(send func(n *Network, p *sim.Process, pkt *Packet)) rideRun {
	var r rideRun
	e := sim.NewEngine()
	n := New(e, l.cfg)
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) { r.events = append(r.events, ev) }})
	n.SetObserver(tr)
	record := func(format string, args ...any) {
		r.log = append(r.log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	for id := 0; id < n.Nodes(); id++ {
		n.Attach(NodeID(id), HandlerFunc(func(pkt *Packet) {
			record("deliver %v at %d corrupt=%v", pkt.Payload, id, pkt.Corrupt)
		}))
	}
	n.SetFaultHook(func(from, to NodeID, pkt *Packet) LinkFault {
		switch sim.Hash(uint64(from), uint64(to), uint64(e.Now()), uint64(pkt.Size)) % 40 {
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
				pkt.Span = uint64(i*100 + j + 1)
				if j%3 == 0 {
					pkt.Seq = uint64(j + 1) // the sender keeps it
				}
				if e.Clear(n.TransferTime(pkt.Src, pkt.Dst, pkt.Size)) {
					r.clear++
				}
				send(n, p, pkt)
				record("s%d sent %d", i, j)
			}
		})
		if s.killAt != 0 {
			e.Schedule(s.killAt, func() {
				record("kill s%d", i)
				p.Kill()
			})
		}
	}
	for i, at := range l.callbacks {
		e.Schedule(at, func() { record("callback %d", i) })
	}
	for _, limit := range l.windows {
		e.RunUntil(limit)
		record("window")
		e.Schedule(7, func() { record("host") })
	}
	r.end = e.Run()
	record("sent %d bytes %d dropped %d corrupted %d",
		n.PacketsSent, n.BytesSent, n.PacketsDropped, n.PacketsCorrupted)
	r.linkOcc = *tr.Hist(obs.HLinkOcc)
	r.executed, r.seq, r.resumes = e.ExecutedEvents(), e.Sequence(), e.Resumes()
	return r
}

// TestSendRideMatchesPark runs seeded mixes on an uncontended mesh
// twice: with Send, which rides a flight through a clear window in
// place, and with the reference that parks every sender. The per-step
// logs and deliveries, the obs stream and link histogram, executed
// events, sequence numbers and final time must be equal, and Send must
// take exactly one resume fewer per clear window: a ride never
// switches, and a flight whose window is busy parks once, all or
// nothing.
func TestSendRideMatchesPark(t *testing.T) {
	var rides uint64
	for seed := uint64(1); seed <= 300; seed++ {
		l := newRideLoad(seed)
		got := l.run((*Network).Send)
		want := l.run(parkedSend)
		if got.executed != want.executed || got.seq != want.seq || got.end != want.end {
			t.Fatalf("seed %d (%+v): executed/seq/end = %d/%d/%d, parked %d/%d/%d",
				seed, l.cfg, got.executed, got.seq, got.end, want.executed, want.seq, want.end)
		}
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %d (%+v): logs differ\n  ride: %v\nparked: %v", seed, l.cfg, got.log, want.log)
		}
		if !reflect.DeepEqual(got.events, want.events) || !reflect.DeepEqual(got.linkOcc, want.linkOcc) {
			t.Fatalf("seed %d (%+v): obs streams differ", seed, l.cfg)
		}
		if want.resumes-got.resumes != got.clear {
			t.Fatalf("seed %d (%+v): Send took %d resumes, the parked reference %d, with %d clear windows",
				seed, l.cfg, got.resumes, want.resumes, got.clear)
		}
		rides += got.clear
	}
	if rides == 0 {
		t.Fatal("no flight found a clear window: nothing rode")
	}
}

// TestRideStopsAtRunUntilLimit: a flight whose arrival lies past the
// active RunUntil limit parks, and is delivered at its own cycle in the
// next run call.
func TestRideStopsAtRunUntilLimit(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, Config{Width: 3, Height: 1, Unlimited: true})
	var got []sim.Time
	n.Attach(2, HandlerFunc(func(*Packet) { got = append(got, e.Now()) }))
	e.Spawn("tx", func(p *sim.Process) {
		for i := 0; i < 2; i++ {
			n.Send(p, &Packet{Src: 0, Dst: 2, Size: 64}) // 2×3 + 8 = 14 cycles
		}
	})
	e.RunUntil(20)
	if !reflect.DeepEqual(got, []sim.Time{14}) || e.Resumes() != 1 {
		t.Fatalf("after RunUntil(20): deliveries %v, resumes %d; want [14], 1", got, e.Resumes())
	}
	e.Run()
	if !reflect.DeepEqual(got, []sim.Time{14, 28}) || e.Resumes() != 2 {
		t.Fatalf("after Run: deliveries %v, resumes %d; want [14 28], 2", got, e.Resumes())
	}
}

// benchmarkSendRide times one size-byte Send corner to corner across a
// 4×4 mesh (6 hops). On the uncontended mesh, the "clear" window has
// nothing else queued, so every flight rides; in the "busy" one a
// no-op event lands one cycle into every flight, so the sender parks
// and runs the flight's events itself. On the "contended" mesh every
// hop holds its link, so the flight is always events, which the parked
// sender runs itself.
func benchmarkSendRide(b *testing.B, size int, window string) {
	e := sim.NewEngine()
	n := New(e, Config{Width: 4, Height: 4, Unlimited: window != "contended"})
	n.Attach(15, HandlerFunc(func(*Packet) {}))
	noop := func() {}
	e.Spawn("tx", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			if window == "busy" {
				e.Schedule(1, noop)
			}
			pkt := n.NewPacket()
			pkt.Src, pkt.Dst, pkt.Size = 0, 15, size
			n.Send(p, pkt)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkSendRide(b *testing.B) {
	for _, size := range []int{64, 4096} {
		for _, window := range []string{"clear", "busy", "contended"} {
			b.Run(fmt.Sprintf("%s/%dB", window, size), func(b *testing.B) {
				benchmarkSendRide(b, size, window)
			})
		}
	}
}
