package dtu

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestMessagePoolHygiene: a message recycled through the DTU's pool
// must come back with nothing of its previous life — no label, data,
// span, or reply capability (replyNode/replyEP/replyLabel/creditEP). A
// leak here would hand the next receiver a forged reply capability or
// another VPE's payload.
func TestMessagePoolHygiene(t *testing.T) {
	r := newRig(t)
	// d0's send endpoint targets d1's ep0, which is left unconfigured:
	// delivery hits receive's bad-endpoint drop path, which recycles
	// the message into the receiving DTU's pool without any software
	// ever seeing it.
	if err := r.d0.Configure(1, Endpoint{
		Type: EpSend, Target: 1, TargetEP: 0, Label: 0xABCDEF, Credits: 4, MsgSize: 64,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(2, Endpoint{
		Type: EpReceive, BufAddr: 0, SlotSize: 64 + HeaderSize, SlotCount: 2,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("sender", func(p *sim.Process) {
		// Arm every field a stale message could leak: span, reply
		// capability, label, payload.
		r.d0.StampSpan(0xDEAD)
		if err := r.d0.Send(p, 1, []byte("secret-payload"), 2, 0x42); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if r.d1.Stats.MsgsDropped != 1 {
		t.Fatalf("MsgsDropped = %d, want 1", r.d1.Stats.MsgsDropped)
	}
	pooled := 0
	for m := r.d1.msgFree; m != nil; m = m.next {
		pooled++
		// acked stays set while pooled: it is the pool marker that
		// refuses a repeated Ack or Reply of the dead message.
		if m.Label != 0 || m.Data != nil || m.Span != 0 ||
			m.replyNode != 0 || m.replyEP != 0 || m.replyLabel != 0 || m.creditEP != 0 ||
			m.slot != 0 || !m.acked || m.sentAt != 0 ||
			m.req != (msgPacket{}) || m.rep != (replyPacket{}) {
			t.Fatalf("pooled message not zeroed: %+v", m)
		}
		if bytes.Contains(m.buf[:cap(m.buf)], []byte("secret")) {
			t.Fatal("pooled payload buffer still holds the old bytes")
		}
	}
	if pooled != 1 {
		t.Fatalf("pooled = %d messages, want 1", pooled)
	}
	// The pool must actually be a pool: the next allocation reuses the
	// recycled object and unlinks it.
	head := r.d1.msgFree
	m := r.d1.newMessage()
	if m != head {
		t.Fatal("newMessage did not reuse the pool head")
	}
	if m.next != nil || m.acked || m.Data != nil {
		t.Fatal("allocated message still marked as pooled")
	}
	if r.d1.msgFree != nil {
		t.Fatal("pool head not advanced")
	}
}

// TestMessagePoolRingbufferDrops covers the other two drop-path
// recycle sites: a full ringbuffer and an over-large payload both drop
// — and pool — the message. The delivered message stays live until
// software acks it.
func TestMessagePoolRingbufferDrops(t *testing.T) {
	r := newRig(t)
	// One slot, small: the second message finds the buffer full.
	if err := r.d1.Configure(0, Endpoint{
		Type: EpReceive, BufAddr: 0, SlotSize: 32 + HeaderSize, SlotCount: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(1, Endpoint{
		Type: EpSend, Target: 1, TargetEP: 0, Label: 1, Credits: 8, MsgSize: 64,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			if err := r.d0.Send(p, 1, []byte("x"), -1, 0); err != nil {
				t.Error(err)
			}
		}
		// Fits the endpoint's MsgSize but not a slot: the slot-size drop
		// path.
		if err := r.d0.Send(p, 1, make([]byte, 48), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if r.d1.Stats.MsgsDropped != 3 {
		t.Fatalf("MsgsDropped = %d, want 3", r.d1.Stats.MsgsDropped)
	}
	pooled := 0
	for m := r.d1.msgFree; m != nil; m = m.next {
		pooled++
		if m.Data != nil || m.Label != 0 {
			t.Fatalf("pooled message not zeroed: %+v", m)
		}
	}
	if pooled != 3 {
		t.Fatalf("pooled = %d messages, want 3", pooled)
	}
	// The delivered message is not in the pool: it belongs to its slot
	// until the Ack.
	m := r.d1.Fetch(0)
	if m == nil || string(m.Data) != "x" {
		t.Fatalf("delivered message damaged: %+v", m)
	}
	r.d1.Ack(0, m)
	if r.d1.msgFree != m {
		t.Fatal("Ack did not recycle the message")
	}
	r.d1.Ack(0, m) // a repeated Ack must not free it twice
	if r.d1.msgFree != m || m.next == m || r.d1.eps[0].occupied != 0 {
		t.Fatalf("repeated Ack corrupted the pool or the slot count (occupied %d)", r.d1.eps[0].occupied)
	}
}

// TestAckPoisonsHeldData: a Data slice software keeps past the Ack
// reads 0xAA, so any use after ack decodes garbage instead of silently
// seeing the next message's bytes.
func TestAckPoisonsHeldData(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	var held []byte
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		held = msg.Data
		if string(held) != "payload" {
			t.Errorf("data = %q before the ack", held)
		}
		if err := r.d1.Reply(p, 0, msg, held); err != nil { // data may alias msg.Data
			t.Error(err)
		}
	})
	var reply []byte
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("payload"), 2, 0); err != nil {
			t.Error(err)
		}
		msg, _ := r.d0.WaitMsg(p, 2)
		reply = append(reply, msg.Data...)
		r.d0.Ack(2, msg)
	})
	r.eng.Run()
	if string(reply) != "payload" {
		t.Fatalf("echoed reply = %q, want the request bytes", reply)
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{0xAA}, len("payload"))) {
		t.Fatalf("data held past Ack = %x, want 0xAA poison", held)
	}
}

// TestMessageRoundTripAllocs: once the pools are warm, a Send, the
// Reply and the final Ack allocate nothing — messages, payload buffers,
// wire headers and the receive FIFOs are all reused.
func TestMessageRoundTripAllocs(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	payload := make([]byte, 64)
	kick := sim.NewSignal(r.eng)
	var err error
	// Both sides are daemons parked between rounds, so the engine can
	// be driven from outside one round at a time.
	r.eng.Spawn("receiver", func(p *sim.Process) {
		p.SetDaemon()
		for err == nil {
			msg, _ := r.d1.WaitMsg(p, 0)
			err = r.d1.Reply(p, 0, msg, payload)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		p.SetDaemon()
		for err == nil {
			kick.Wait(p)
			if err = r.d0.Send(p, 1, payload, 2, 0); err == nil {
				msg, _ := r.d0.WaitMsg(p, 2)
				r.d0.Ack(2, msg)
			}
		}
	})
	round := func() {
		kick.Notify()
		r.eng.Run()
	}
	r.eng.Run() // park the sender on kick
	// Many turns of the calendar wheel: each bucket allocates its
	// backing array the first time it holds an event.
	const warm = 5000
	for i := 0; i < warm; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(200, round)
	if err != nil {
		t.Fatal(err)
	}
	if r.d1.Stats.MsgsReceived != warm+201 {
		t.Fatalf("%d messages received, want one per round", r.d1.Stats.MsgsReceived)
	}
	if allocs != 0 {
		t.Fatalf("Send/Reply/Ack round trip allocates %.1f objects, want 0", allocs)
	}
}

// TestPendingOpRecycled: a completed remote operation's record goes
// back to the freelist zeroed, keeping its done signal, and the next
// operation reuses it.
func TestPendingOpRecycled(t *testing.T) {
	r := newRig(t)
	if err := r.d0.Configure(3, Endpoint{
		Type: EpMemory, MemTarget: 1, MemAddr: 0, MemSize: 4096, MemPerms: PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	var first *pendingOp
	r.eng.Spawn("rdma", func(p *sim.Process) {
		if err := r.d0.WriteMem(p, 3, 0, []byte("abcd")); err != nil {
			t.Error(err)
		}
		first = r.d0.opFree
		if first == nil {
			t.Fatal("completed op was not recycled")
		}
		if first.id != 0 || first.opResult != (opResult{}) || first.next != nil || first.done == nil ||
			first.done.Waiters() != 0 {
			t.Errorf("recycled op not zeroed: %+v", first)
		}
		rec := r.d0.memFree
		if rec == nil || !reflect.ValueOf(*rec).IsZero() {
			t.Fatalf("RDMA record not recycled and zeroed: %+v", rec)
		}
		buf := make([]byte, 4)
		if err := r.d0.ReadMem(p, 3, 0, buf); err != nil || string(buf) != "abcd" {
			t.Errorf("read %q, %v", buf, err)
		}
		if r.d0.opFree != first {
			t.Error("the next op did not reuse the recycled record")
		}
		if r.d0.memFree != rec || !reflect.ValueOf(*rec).IsZero() {
			t.Error("the read did not reuse and clear the write's RDMA record")
		}
	})
	r.eng.Run()
	if len(r.d0.ops) != 0 {
		t.Fatalf("%d ops still pending", len(r.d0.ops))
	}
}
