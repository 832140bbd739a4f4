package dtu

import (
	"testing"

	"repro/internal/sim"
)

func TestAdmissionWatermarkRefusesRequests(t *testing.T) {
	r := newRig(t)
	r.d1.SetRxWatermark(2)
	r.channel(t, 4)
	var flagged *Message
	r.eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			if err := r.d0.Send(p, 1, []byte("req"), 2, 7); err != nil {
				t.Error(err)
			}
		}
		// The third request is refused; its fast-fail reply lands on the
		// reply endpoint like any other reply.
		msg, _ := r.d0.WaitMsg(p, 2)
		cp := *msg // the Ack recycles msg
		flagged = &cp
		r.d0.Ack(2, msg)
	})
	r.eng.Run()
	if r.d1.Stats.OverloadRefused != 1 {
		t.Fatalf("refusals = %d, want 1", r.d1.Stats.OverloadRefused)
	}
	if r.d1.Stats.MsgsReceived != 2 {
		t.Fatalf("admitted = %d, want the watermark's 2", r.d1.Stats.MsgsReceived)
	}
	if flagged == nil || !flagged.Overloaded() {
		t.Fatalf("fast-fail reply flags wrong: %+v", flagged)
	}
	if flagged.Label != 7 {
		t.Fatalf("fast-fail reply label = %d, want the request's replyLabel", flagged.Label)
	}
	// The refusal restored the sender's credit: 4 - 3 sends + 1 refund.
	if got := r.d0.Credits(1); got != 2 {
		t.Fatalf("credits = %d, want 2 (refusal must refund)", got)
	}
}

// fetchAll drains every arrived message of one endpoint.
func fetchAll(d *DTU, ep int) ([]*Message, int) {
	var msgs []*Message
	for {
		m := d.Fetch(ep)
		if m == nil {
			return msgs, len(msgs)
		}
		msgs = append(msgs, m)
	}
}

func TestRepliesBypassAdmission(t *testing.T) {
	// Replies must land even past the watermark: their slot was budgeted
	// by the requester's credit, and refusing them would strand callers.
	r := newRig(t)
	r.d0.SetRxWatermark(1)
	r.channel(t, 4)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		if err := r.d1.Reply(p, 0, msg, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		// Pre-fill the sender's reply endpoint to the watermark with an
		// unrelated self-directed message, then do a real exchange.
		if err := r.d0.Configure(3, Endpoint{
			Type: EpSend, Target: 0, TargetEP: 2, Label: 1, Credits: 1, MsgSize: 16,
		}); err != nil {
			t.Fatal(err)
		}
		if err := r.d0.Send(p, 3, []byte("filler"), -1, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("ping"), 2, 42); err != nil {
			t.Error(err)
		}
		msg, _ := r.d0.WaitMsg(p, 2)
		if string(msg.Data) != "pong" && string(msg.Data) != "filler" {
			t.Errorf("unexpected data %q", msg.Data)
		}
	})
	r.eng.Run()
	// Both the filler request and the reply occupied ep2; the reply was
	// admitted although the watermark (1) was already met by the filler.
	if r.d0.Stats.OverloadRefused != 0 {
		t.Fatalf("refused = %d, want 0 — a reply or the single pre-watermark request was refused", r.d0.Stats.OverloadRefused)
	}
	if r.d0.Stats.MsgsReceived != 2 {
		t.Fatalf("received = %d, want filler + reply", r.d0.Stats.MsgsReceived)
	}
}

func TestOverloadOffIsInert(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	// Without a watermark no request is refused.
	r.eng.Spawn("pair", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("plain"), 2, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	msgs, n := fetchAll(r.d1, 0)
	if n != 1 || msgs[0].Overloaded() {
		t.Fatalf("disarmed DTU: %d msgs delivered, want 1 plain request", n)
	}
	if r.d1.Stats.OverloadRefused != 0 {
		t.Fatalf("disarmed DTU refused %d requests", r.d1.Stats.OverloadRefused)
	}
	if r.d0.CallDeadline() != 0 {
		t.Fatalf("CallDeadline = %d, want 0", r.d0.CallDeadline())
	}
}

// TestOverloadCallDeadlineExposed: the call budget software reads is
// the fault plan's, and only the fault plan's.
func TestOverloadCallDeadlineExposed(t *testing.T) {
	r := newRig(t)
	r.d0.SetRxWatermark(4)
	if got := r.d0.CallDeadline(); got != 0 {
		t.Fatalf("CallDeadline with only a watermark = %d, want 0", got)
	}
	r.d0.EnableFaults(&FaultConfig{CallDeadline: 777})
	if got := r.d0.CallDeadline(); got != 777 {
		t.Fatalf("CallDeadline with faults = %d, want 777", got)
	}
}
