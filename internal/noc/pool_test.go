package noc

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// fillPacket arms every field a stale pooled packet could leak.
func fillPacket(pkt *Packet) {
	pkt.Src, pkt.Dst, pkt.Size = 1, 2, 64
	pkt.Payload = "stale"
	pkt.Seq = 99
	pkt.Corrupt = true
	pkt.Span = 0xDEAD
	pkt.Retain = true
}

// assertZeroed fails unless pkt carries nothing of its previous life.
func assertZeroed(t *testing.T, pkt *Packet) {
	t.Helper()
	if pkt.Src != 0 || pkt.Dst != 0 || pkt.Size != 0 || pkt.Payload != nil ||
		pkt.Seq != 0 || pkt.Corrupt || pkt.Span != 0 || pkt.Retain {
		t.Fatalf("pooled packet not zeroed: %+v", pkt)
	}
}

// TestPacketPoolHygiene: FreePacket must scrub everything — a stale
// Seq would trip the receiver's dedup table, a stale Corrupt flag
// would poison an innocent transfer, a stale Retain would leak the
// packet — and NewPacket must reuse pooled objects LIFO.
func TestPacketPoolHygiene(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})

	first := n.NewPacket() // cold start: heap
	assertZeroed(t, first)
	fillPacket(first)
	n.FreePacket(first)
	assertZeroed(t, first)
	if n.free != first {
		t.Fatal("freed packet not at pool head")
	}

	second := n.NewPacket()
	if second != first {
		t.Fatal("NewPacket did not reuse the pooled object")
	}
	if second.next != nil {
		t.Fatal("allocated packet still linked into the pool")
	}
	if n.free != nil {
		t.Fatal("pool head not advanced")
	}
	n.FreePacket(second)
}

// TestPacketPoolDeliveryOwnership covers the three ownership rules at
// the delivery boundary: fire-and-forget packets are recycled by the
// network after Deliver, Retain hands them to the handler, and
// sequence-numbered packets stay sender-owned.
func TestPacketPoolDeliveryOwnership(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	var retained *Packet
	n.Attach(0, HandlerFunc(func(pkt *Packet) {}))
	n.Attach(1, HandlerFunc(func(pkt *Packet) {
		if pkt.Payload == "keep" {
			pkt.Retain = true
			retained = pkt
		}
	}))

	eng.Spawn("sender", func(p *sim.Process) {
		// Rule: Seq == 0, no Retain — network recycles after Deliver.
		pkt := n.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = 0, 1, 8
		pkt.Payload = "fire-and-forget"
		n.Send(p, pkt)
		if n.free != pkt {
			t.Error("fire-and-forget packet not recycled after delivery")
		}

		// Rule: Retain — the handler owns it until it frees it.
		pkt2 := n.NewPacket()
		pkt2.Src, pkt2.Dst, pkt2.Size = 0, 1, 8
		pkt2.Payload = "keep"
		n.Send(p, pkt2)
		if retained != pkt2 {
			t.Error("handler did not retain the packet")
		}
		if n.free == pkt2 {
			t.Error("retained packet recycled behind the handler's back")
		}
		n.FreePacket(retained)
		assertZeroed(t, retained)

		// Rule: Seq != 0 — sender-owned, the network must not touch it.
		pkt3 := n.NewPacket()
		pkt3.Src, pkt3.Dst, pkt3.Size = 0, 1, 8
		pkt3.Seq = 7
		pkt3.Payload = "reliable"
		n.Send(p, pkt3)
		if pkt3.Payload != "reliable" || pkt3.Seq != 7 {
			t.Error("sender-owned packet mutated by delivery")
		}
		n.FreePacket(pkt3)
	})
	eng.Run()
}

// TestPacketPoolDropRecycle: a fault-dropped fire-and-forget packet is
// recycled at the drop site; a sequence-numbered one stays with the
// sender for retransmission.
func TestPacketPoolDropRecycle(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	n.Attach(0, HandlerFunc(func(pkt *Packet) {}))
	n.Attach(1, HandlerFunc(func(pkt *Packet) { t.Error("dropped packet delivered") }))
	n.SetFaultHook(func(from, to NodeID, pkt *Packet) LinkFault { return LinkDrop })

	eng.Spawn("sender", func(p *sim.Process) {
		pkt := n.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = 0, 1, 8
		pkt.Payload = "lost"
		n.Send(p, pkt)
		if n.free != pkt {
			t.Error("dropped fire-and-forget packet not recycled")
		}
		assertZeroed(t, pkt)

		pkt2 := n.NewPacket()
		pkt2.Src, pkt2.Dst, pkt2.Size = 0, 1, 8
		pkt2.Seq = 3
		pkt2.Payload = "reliable"
		n.Send(p, pkt2)
		if pkt2.Payload != "reliable" {
			t.Error("sender-owned packet recycled at the drop site")
		}
		n.FreePacket(pkt2)
	})
	eng.Run()
	if n.PacketsDropped != 2 {
		t.Fatalf("PacketsDropped = %d, want 2", n.PacketsDropped)
	}
}

// TestPayloadPool: payload buffers up to 4 KiB come from one LIFO free
// list of 4 KiB buffers, sliced to the requested length; larger ones
// are plain allocations that FreePayload does not keep.
func TestPayloadPool(t *testing.T) {
	n := New(sim.NewEngine(), Config{Width: 2, Height: 1})
	a := n.NewPayload(100)
	if len(a) != 100 || cap(a) != payloadClass {
		t.Fatalf("cold NewPayload(100): len %d cap %d, want 100/%d", len(a), cap(a), payloadClass)
	}
	n.FreePayload(a)
	b := n.NewPayload(payloadClass)
	if len(b) != payloadClass || &b[0] != &a[0] {
		t.Fatal("NewPayload did not reuse the freed buffer at full length")
	}
	if len(n.payloads) != 0 {
		t.Fatalf("free list holds %d buffers after reuse, want 0", len(n.payloads))
	}
	big := n.NewPayload(payloadClass + 1)
	if len(big) != payloadClass+1 {
		t.Fatalf("NewPayload(%d): len %d", payloadClass+1, len(big))
	}
	n.FreePayload(big)
	n.FreePayload(make([]byte, 64))
	if len(n.payloads) != 0 {
		t.Fatal("FreePayload kept a buffer outside the pooled class")
	}
}

// TestPacketPoolAsyncRecycle: SendAsync delivers via a scheduled event;
// the fire-and-forget recycle happens after the deferred delivery, not
// at injection.
func TestPacketPoolAsyncRecycle(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	delivered := false
	n.Attach(0, HandlerFunc(func(pkt *Packet) {}))
	n.Attach(1, HandlerFunc(func(pkt *Packet) { delivered = true }))

	pkt := n.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size = 0, 1, 8
	pkt.Payload = "ctrl"
	n.SendAsync(pkt)
	if n.free == pkt {
		t.Fatal("in-flight async packet recycled before delivery")
	}
	eng.Run()
	if !delivered {
		t.Fatal("async packet never delivered")
	}
	if n.free != pkt {
		t.Fatal("async packet not recycled after delivery")
	}
	assertZeroed(t, pkt)
}

// asyncSender returns a function that sends count 8-byte control
// packets corner to corner across a contended 4×4 mesh with SendAsync,
// one per cycle from an engine event (as a DTU emits acks and NACKs),
// and runs the engine until the last is delivered.
func asyncSender(n *Network) func(count int) {
	left := 0
	var tick func()
	tick = func() {
		pkt := n.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Span = 0, 15, 8, 1
		n.SendAsync(pkt)
		if left--; left > 0 {
			n.eng.Schedule(1, tick)
		}
	}
	return func(count int) {
		left = count
		n.eng.Schedule(0, tick)
		n.eng.Run()
	}
}

// TestSendAsyncPooledAndUntraced: a warm SendAsync allocates nothing,
// delivers in one event at the uncontended transfer time, and, unlike
// Send, traces neither injection nor delivery, even of a packet that
// carries a span.
func TestSendAsyncPooledAndUntraced(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 4, Height: 4})
	var kinds []obs.Kind
	n.SetObserver(obs.New(obs.Options{Sink: func(ev obs.Event) { kinds = append(kinds, ev.Kind) }}))
	var at []sim.Time
	n.Attach(15, HandlerFunc(func(*Packet) { at = append(at, eng.Now()) }))
	send := asyncSender(n)
	send(1)
	if want := []sim.Time{n.TransferTime(0, 15, 8)}; !reflect.DeepEqual(at, want) || eng.ExecutedEvents() != 2 {
		t.Fatalf("delivered at %v in %d events, want %v in 2", at, eng.ExecutedEvents(), want)
	}
	if len(kinds) != 0 {
		t.Fatalf("SendAsync traced %v", kinds)
	}
	// Many turns of the calendar wheel warm its buckets.
	send(5000)
	if allocs := testing.AllocsPerRun(100, func() { send(10) }); allocs != 0 {
		t.Fatalf("a warm SendAsync allocates %.1f objects per 10 sends, want 0", allocs)
	}
}

// BenchmarkSendAsync times one control packet across six hops with
// SendAsync, injection to delivery, on a warm mesh.
func BenchmarkSendAsync(b *testing.B) {
	n := New(sim.NewEngine(), Config{Width: 4, Height: 4})
	n.Attach(15, HandlerFunc(func(*Packet) {}))
	send := asyncSender(n)
	send(5000)
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
}
