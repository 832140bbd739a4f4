package dtu

import (
	"errors"
	"testing"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Deadline coverage for the bounded wait primitives the crash-recovery
// stack leans on (docs/RECOVERY.md): a waiter with a cycle budget gets
// a clean expiry instead of parking forever on a dead peer, a message
// arriving in time wins over the timer, and zero budget degenerates to
// the plain unbounded wait.

func TestWaitMsgDeadlineExpires(t *testing.T) {
	r := newRig(t)
	r.channel(t, 2)
	var at sim.Time
	fired := false
	r.eng.Spawn("recv", func(p *sim.Process) {
		msg, ep := r.d1.WaitMsgDeadline(p, 5000, 0)
		if msg != nil || ep != -1 {
			t.Errorf("WaitMsgDeadline on silent channel = %v, %d; want nil, -1", msg, ep)
		}
		at = r.eng.Now()
		fired = true
	})
	r.eng.Run()
	if !fired {
		t.Fatal("waiter never returned")
	}
	if at != 5000 {
		t.Errorf("deadline expired at %d, want exactly 5000", at)
	}
}

func TestWaitMsgDeadlineDeliveredInTime(t *testing.T) {
	r := newRig(t)
	r.channel(t, 2)
	got := false
	r.eng.Spawn("recv", func(p *sim.Process) {
		msg, ep := r.d1.WaitMsgDeadline(p, 50000, 0)
		if msg == nil || ep != 0 {
			t.Errorf("WaitMsgDeadline = %v, %d; want the message on ep 0", msg, ep)
			return
		}
		if string(msg.Data) != "ping" {
			t.Errorf("payload = %q, want ping", msg.Data)
		}
		got = true
	})
	r.eng.Spawn("send", func(p *sim.Process) {
		p.Sleep(1000)
		if err := r.d0.Send(p, 1, []byte("ping"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if !got {
		t.Fatal("message never delivered")
	}
}

func TestWaitCreditsDeadline(t *testing.T) {
	r := newRig(t)
	r.channel(t, 1)
	done := false
	r.eng.Spawn("send", func(p *sim.Process) {
		// Burn the only credit; nobody ever replies, so the credit never
		// comes back and the bounded wait must expire on the dot.
		if err := r.d0.Send(p, 1, []byte("m"), -1, 0); err != nil {
			t.Error(err)
			return
		}
		start := r.eng.Now()
		if err := r.d0.WaitCredits(p, 1, 3000); !errors.Is(err, ErrTimeout) {
			t.Errorf("WaitCreditsDeadline = %v, want ErrTimeout", err)
		}
		if took := r.eng.Now() - start; took != 3000 {
			t.Errorf("expiry took %d cycles, want exactly 3000", took)
		}
		// Misconfigured endpoints fail fast, budget or not.
		if err := r.d0.WaitCredits(p, 2, 3000); !errors.Is(err, ErrBadEndpoint) {
			t.Errorf("on a receive endpoint: %v, want ErrBadEndpoint", err)
		}
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("sender never finished")
	}
}

// TestWaitDeadlineZeroSchedulesNothing pins the zero-extra-events
// discipline: a zero budget must not arm a timer — the fault-free
// baseline schedule stays bit-identical whether the deadline plumbing
// exists or not.
func TestWaitDeadlineZeroSchedulesNothing(t *testing.T) {
	r := newRig(t)
	r.channel(t, 2)
	got := false
	r.eng.Spawn("recv", func(p *sim.Process) {
		msg, ep := r.d1.WaitMsgDeadline(p, 0, 0)
		if msg == nil || ep != 0 {
			t.Errorf("WaitMsgDeadline(0) = %v, %d; want the message", msg, ep)
			return
		}
		got = true
	})
	r.eng.Spawn("send", func(p *sim.Process) {
		p.Sleep(1000)
		if err := r.d0.Send(p, 1, []byte("x"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if !got {
		t.Fatal("message never delivered")
	}
	// The engine drained: had a timer been armed for "deadline zero",
	// the run would have ended later than the send path needs.
	if now := r.eng.Now(); now >= 5000 {
		t.Errorf("engine ran until %d; a phantom deadline timer was scheduled", now)
	}
}

// TestWaitMsgDeadlineAllEndpoints: a bounded wait that names no
// endpoint polls every receive endpoint, like WaitMsg, and returns the
// message as soon as it lands instead of sitting out the budget.
func TestWaitMsgDeadlineAllEndpoints(t *testing.T) {
	r := newRig(t)
	r.channel(t, 2)
	var at sim.Time
	got := false
	r.eng.Spawn("recv", func(p *sim.Process) {
		msg, ep := r.d1.WaitMsgDeadline(p, 50000)
		if msg == nil || ep != 0 {
			t.Errorf("WaitMsgDeadline(all) = %v, %d; want the message on ep 0", msg, ep)
			return
		}
		at = r.eng.Now()
		got = true
	})
	r.eng.Spawn("send", func(p *sim.Process) {
		p.Sleep(100)
		if err := r.d0.Send(p, 1, []byte("ping"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if !got {
		t.Fatal("message never delivered")
	}
	if at >= 50000 {
		t.Errorf("message fetched at %d, only when the budget expired", at)
	}
}

// creditEvents installs a tracer on d that records its credit-stall
// brackets.
func creditEvents(d *DTU) *[]obs.Event {
	var evs []obs.Event
	d.SetObserver(obs.New(obs.Options{Sink: func(ev obs.Event) {
		if ev.Kind == obs.EvCreditStall || ev.Kind == obs.EvCreditOK {
			evs = append(evs, ev)
		}
	}}))
	return &evs
}

// TestSendWaitStallExpires pins SendWait's expiry contract: the stall
// is bracketed by EvCreditStall and an EvCreditOK marked expired
// (Arg2=1) under the caller's span, exactly deadline cycles apart, and
// the send fails with ErrNoCredits — not ErrTimeout, which belongs to
// transmits that ran out of retries.
func TestSendWaitStallExpires(t *testing.T) {
	r := newRig(t)
	r.channel(t, 1)
	evs := creditEvents(r.d0)
	done := false
	r.eng.Spawn("send", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("m"), -1, 0); err != nil {
			t.Error(err)
			return
		}
		start := r.eng.Now()
		err := r.d0.SendWait(p, 1, []byte("m"), -1, 0, 3000, 7)
		if !errors.Is(err, ErrNoCredits) || errors.Is(err, ErrTimeout) {
			t.Errorf("SendWait = %v, want ErrNoCredits", err)
		}
		if took := r.eng.Now() - start; took != 3000 {
			t.Errorf("expiry took %d cycles, want exactly 3000", took)
		}
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("sender never finished")
	}
	if len(*evs) != 2 {
		t.Fatalf("credit events = %v, want a stall and its end", *evs)
	}
	stall, ok := (*evs)[0], (*evs)[1]
	if stall.Kind != obs.EvCreditStall || stall.Span != 7 || stall.Arg0 != 1 {
		t.Errorf("first event = %v, want EvCreditStall on ep 1, span 7", stall)
	}
	if ok.Kind != obs.EvCreditOK || ok.Span != 7 || ok.Arg0 != 1 || ok.Arg2 != 1 {
		t.Errorf("second event = %v, want EvCreditOK on ep 1, span 7, expired", ok)
	}
	if ok.At-stall.At != 3000 {
		t.Errorf("stall lasted %d cycles, want 3000", ok.At-stall.At)
	}
}

// TestSendWaitRetriesOnCredit: a credit restored within the budget
// ends the stall (Arg2=0) and the retried send goes through.
func TestSendWaitRetriesOnCredit(t *testing.T) {
	r := newRig(t)
	r.channel(t, 1)
	evs := creditEvents(r.d0)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		p.Sleep(1000)
		if err := r.d1.Reply(p, 0, msg, nil); err != nil {
			t.Error(err)
		}
		msg, _ = r.d1.WaitMsg(p, 0)
		r.d1.Ack(0, msg)
	})
	r.eng.Spawn("send", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("first"), 2, 1); err != nil {
			t.Error(err)
			return
		}
		if err := r.d0.SendWait(p, 1, []byte("second"), -1, 0, 50000, 0); err != nil {
			t.Errorf("SendWait = %v, want success after the credit returned", err)
		}
	})
	r.eng.Run()
	if len(*evs) != 2 || (*evs)[1].Kind != obs.EvCreditOK || (*evs)[1].Arg2 != 0 {
		t.Errorf("credit events = %v, want a stall ended by a credit (Arg2=0)", *evs)
	}
	if r.d1.Stats.MsgsReceived != 2 {
		t.Errorf("delivered = %d, want 2", r.d1.Stats.MsgsReceived)
	}
}

// TestSendWaitPassesTransmitTimeout: a transmit that exhausts its
// retry budget under fault injection is not a credit stall; SendWait
// returns the DTU's ErrTimeout untouched.
func TestSendWaitPassesTransmitTimeout(t *testing.T) {
	r := newFaultRig(t, FaultConfig{Timeout: 50, MaxRetries: 3}, func(pkt *noc.Packet) noc.LinkFault {
		if _, ok := pkt.Payload.(*msgPacket); ok {
			return noc.LinkDrop
		}
		return noc.LinkOK
	})
	r.channel(t, 4)
	evs := creditEvents(r.d0)
	r.eng.Spawn("sender", func(p *sim.Process) {
		err := r.d0.SendWait(p, 1, []byte("void"), -1, 0, 3000, 0)
		if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrNoCredits) {
			t.Errorf("SendWait = %v, want ErrTimeout", err)
		}
	})
	r.eng.Run()
	if len(*evs) != 0 {
		t.Errorf("credit events = %v, want none", *evs)
	}
}
