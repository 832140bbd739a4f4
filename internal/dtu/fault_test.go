package dtu

import (
	"errors"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// newFaultRig is newRig with reliability armed on both DTUs and a
// scriptable per-packet fault verdict. The verdict sees every copy of
// every packet on every hop (the 2x1 mesh has a single hop), so tests
// can drop or corrupt exactly the copies they mean to.
func newFaultRig(t *testing.T, cfg FaultConfig, verdict func(pkt *noc.Packet) noc.LinkFault) *rig {
	t.Helper()
	r := newRig(t)
	c0, c1 := cfg, cfg
	r.d0.EnableFaults(&c0)
	r.d1.EnableFaults(&c1)
	if verdict != nil {
		r.net.SetFaultHook(func(from, to noc.NodeID, pkt *noc.Packet) noc.LinkFault {
			return verdict(pkt)
		})
	}
	return r
}

// exchange runs the standard ping/pong over the rig's channel and
// checks the reply came back intact.
func exchange(t *testing.T, r *rig) {
	t.Helper()
	r.channel(t, 4)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		if string(msg.Data) != "ping" {
			t.Errorf("data = %q", msg.Data)
		}
		if err := r.d1.Reply(p, 0, msg, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("ping"), 2, 42); err != nil {
			t.Error(err)
		}
		msg, _ := r.d0.WaitMsg(p, 2)
		if string(msg.Data) != "pong" {
			t.Errorf("reply = %q", msg.Data)
		}
		r.d0.Ack(2, msg)
	})
	r.eng.Run()
}

func TestTransmitRetriesAfterDrop(t *testing.T) {
	// The first copy of every message-class transfer is dropped; the
	// timeout-driven retransmit must still deliver each exactly once.
	seen := map[seqKey]bool{}
	r := newFaultRig(t, FaultConfig{Timeout: 100}, func(pkt *noc.Packet) noc.LinkFault {
		key := seqKey{src: pkt.Src, seq: pkt.Seq}
		if pkt.Seq != 0 && !seen[key] {
			seen[key] = true
			return noc.LinkDrop
		}
		return noc.LinkOK
	})
	exchange(t, r)
	if r.d0.Stats.Retransmits == 0 || r.d1.Stats.Retransmits == 0 {
		t.Errorf("retransmits = %d/%d, want both > 0", r.d0.Stats.Retransmits, r.d1.Stats.Retransmits)
	}
	if r.d1.Stats.MsgsReceived != 1 || r.d0.Stats.MsgsReceived != 1 {
		t.Errorf("delivered = %d/%d, want exactly one each way", r.d1.Stats.MsgsReceived, r.d0.Stats.MsgsReceived)
	}
	if r.d0.Stats.SendsAborted != 0 || r.d1.Stats.SendsAborted != 0 {
		t.Errorf("aborts = %d/%d, want none", r.d0.Stats.SendsAborted, r.d1.Stats.SendsAborted)
	}
}

func TestCorruptCopyNacksAndRetransmits(t *testing.T) {
	// One corrupted copy: the receiver poisons it and NACKs, and the
	// sender retransmits immediately instead of waiting out the timeout.
	corrupted := false
	r := newFaultRig(t, FaultConfig{}, func(pkt *noc.Packet) noc.LinkFault {
		if _, ok := pkt.Payload.(*msgPacket); ok && !corrupted {
			corrupted = true
			return noc.LinkCorrupt
		}
		return noc.LinkOK
	})
	exchange(t, r)
	if r.d1.Stats.Poisoned != 1 {
		t.Errorf("poisoned = %d, want 1", r.d1.Stats.Poisoned)
	}
	if r.d0.Stats.Retransmits != 1 {
		t.Errorf("retransmits = %d, want 1", r.d0.Stats.Retransmits)
	}
	if r.d1.Stats.MsgsReceived != 1 {
		t.Errorf("delivered = %d, want exactly once", r.d1.Stats.MsgsReceived)
	}
}

func TestTransmitAbortsAfterRetryBudget(t *testing.T) {
	// A fully partitioned receiver: every data copy is dropped, so the
	// send must abort with ErrTimeout after MaxRetries+1 attempts
	// instead of blocking forever.
	r := newFaultRig(t, FaultConfig{Timeout: 50, MaxRetries: 3}, func(pkt *noc.Packet) noc.LinkFault {
		if _, ok := pkt.Payload.(*msgPacket); ok {
			return noc.LinkDrop
		}
		return noc.LinkOK
	})
	r.channel(t, 4)
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("void"), -1, 0); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	r.eng.Run()
	if r.d0.Stats.SendsAborted != 1 {
		t.Errorf("aborts = %d, want 1", r.d0.Stats.SendsAborted)
	}
	if r.d0.Stats.Retransmits != 3 {
		t.Errorf("retransmits = %d, want MaxRetries", r.d0.Stats.Retransmits)
	}
	if r.d1.Stats.MsgsReceived != 0 {
		t.Errorf("delivered = %d, want none", r.d1.Stats.MsgsReceived)
	}
}

func TestGrantCreditsRefillUnderRetry(t *testing.T) {
	// Credit exhaustion and the kernel-style GrantCredits refill under
	// the worst retry weather: the first grant copy is dropped (timeout
	// retransmit) and the ack of the copy that did arrive is dropped too
	// (one more retransmit, which the receiver must deduplicate so the
	// grant is applied exactly once).
	dropCredit, dropAck := true, true
	r := newFaultRig(t, FaultConfig{Timeout: 100}, func(pkt *noc.Packet) noc.LinkFault {
		switch pkt.Payload.(type) {
		case *creditPacket:
			if dropCredit {
				dropCredit = false
				return noc.LinkDrop
			}
		case *ackPacket:
			// Node 0 only acks transfers from node 1, and the only such
			// transfer in this test is the credit grant.
			if pkt.Src == 0 && dropAck {
				dropAck = false
				return noc.LinkDrop
			}
		}
		return noc.LinkOK
	})
	r.channel(t, 1)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		r.d1.Ack(0, msg)
		// Acking without replying restores nothing; the privileged side
		// refills the sender explicitly (§4.4.3's second refill path).
		if err := r.d1.GrantCredits(p, 0, 1, 1); err != nil {
			t.Error(err)
		}
		msg, _ = r.d1.WaitMsg(p, 0)
		r.d1.Ack(0, msg)
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("first"), -1, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("starved"), -1, 0); !errors.Is(err, ErrNoCredits) {
			t.Errorf("err = %v, want ErrNoCredits", err)
		}
		if err := r.d0.WaitCredits(p, 1, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("second"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if r.d0.Stats.SendsDenied != 1 {
		t.Errorf("denied = %d, want 1", r.d0.Stats.SendsDenied)
	}
	if r.d1.Stats.Retransmits < 2 {
		t.Errorf("grant retransmits = %d, want >= 2 (lost copy + lost ack)", r.d1.Stats.Retransmits)
	}
	if r.d0.Stats.DupsDropped != 1 {
		t.Errorf("dups dropped = %d, want 1", r.d0.Stats.DupsDropped)
	}
	if got := r.d0.Credits(1); got != 0 {
		t.Errorf("credits = %d, want 0 (granted once, spent once)", got)
	}
	if r.d1.Stats.MsgsReceived != 2 {
		t.Errorf("delivered = %d, want 2", r.d1.Stats.MsgsReceived)
	}
}

func TestReadMemRetriesLostRequest(t *testing.T) {
	// RDMA reads ride the op-retry path: a lost request times out and is
	// reissued under a fresh op id, and the caller never sees the loss.
	dropReq := true
	r := newFaultRig(t, FaultConfig{Timeout: 100}, func(pkt *noc.Packet) noc.LinkFault {
		if _, ok := pkt.Payload.(*MemReadReq); ok && dropReq {
			dropReq = false
			return noc.LinkDrop
		}
		return noc.LinkOK
	})
	if err := r.d0.Configure(3, Endpoint{
		Type: EpMemory, MemTarget: 1, MemAddr: 1024, MemSize: 1024, MemPerms: PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("rdma", func(p *sim.Process) {
		if err := r.d0.WriteMem(p, 3, 0, []byte("durable")); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 7)
		if err := r.d0.ReadMem(p, 3, 0, buf); err != nil {
			t.Error(err)
		}
		if string(buf) != "durable" {
			t.Errorf("read = %q", buf)
		}
	})
	r.eng.Run()
	if r.d0.Stats.OpTimeouts != 1 {
		t.Errorf("op timeouts = %d, want 1", r.d0.Stats.OpTimeouts)
	}
	if r.d0.Stats.SendsAborted != 0 {
		t.Errorf("aborts = %d, want none", r.d0.Stats.SendsAborted)
	}
}

func TestProbeUnreachablePEReportsTimeout(t *testing.T) {
	// A fully unreachable PE answers no probe; the prober must get a
	// clean ErrTimeout — that is the kernel's "dead or partitioned"
	// signal — rather than block forever.
	r := newFaultRig(t, FaultConfig{Timeout: 50, MaxRetries: 2}, func(pkt *noc.Packet) noc.LinkFault {
		if _, ok := pkt.Payload.(*probeReq); ok {
			return noc.LinkDrop
		}
		return noc.LinkOK
	})
	r.eng.Spawn("prober", func(p *sim.Process) {
		if _, err := r.d0.Probe(p, 1); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	r.eng.Run()
	if r.d0.Stats.OpTimeouts != 3 {
		t.Errorf("op timeouts = %d, want MaxRetries+1", r.d0.Stats.OpTimeouts)
	}
}

func TestProbeReportsCrashedCore(t *testing.T) {
	// The DTU answers probes autonomously from its core-status line, so
	// a crashed core is visible without any software on the probed PE.
	r := newFaultRig(t, FaultConfig{}, nil)
	coreDead := false
	r.d1.SetCoreStatus(func() bool { return coreDead })
	r.eng.Spawn("prober", func(p *sim.Process) {
		crashed, err := r.d0.Probe(p, 1)
		if err != nil || crashed {
			t.Errorf("live probe = (%v, %v), want (false, nil)", crashed, err)
		}
		coreDead = true
		crashed, err = r.d0.Probe(p, 1)
		if err != nil || !crashed {
			t.Errorf("dead probe = (%v, %v), want (true, nil)", crashed, err)
		}
	})
	r.eng.Run()
}
