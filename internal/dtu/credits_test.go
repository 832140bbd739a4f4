package dtu

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestKernelCreditRefill(t *testing.T) {
	r := newRig(t)
	// One-credit channel, no reply path: after one send the channel is
	// exhausted until a "kernel" (the still-privileged d1) grants more.
	if err := r.d1.Configure(0, Endpoint{
		Type: EpReceive, BufAddr: 0, SlotSize: 64 + HeaderSize, SlotCount: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(1, Endpoint{
		Type: EpSend, Target: 1, TargetEP: 0, Credits: 1, MsgSize: 64,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("a"), -1, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("b"), -1, 0); !errors.Is(err, ErrNoCredits) {
			t.Errorf("second send: %v, want ErrNoCredits", err)
		}
		if err := r.d0.WaitCredits(p, 1, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("b"), -1, 0); err != nil {
			t.Errorf("send after refill: %v", err)
		}
	})
	r.eng.Spawn("kernel", func(p *sim.Process) {
		p.Sleep(500)
		if err := r.d1.GrantCredits(p, 0, 1, 2); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if got := r.d0.Credits(1); got != 1 {
		t.Fatalf("credits = %d, want 1 (granted 2, spent 1)", got)
	}
	if r.d1.Stats.MsgsReceived != 2 {
		t.Fatalf("received = %d, want 2", r.d1.Stats.MsgsReceived)
	}
}

func TestGrantCreditsRequiresPrivilege(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("setup", func(p *sim.Process) {
		if err := r.d0.SetPrivilegedRemote(p, 1, false); err != nil {
			t.Error(err)
		}
		if err := r.d1.GrantCredits(p, 0, 1, 1); !errors.Is(err, ErrNotPrivileged) {
			t.Errorf("grant: %v, want ErrNotPrivileged", err)
		}
		if err := r.d0.GrantCredits(p, 1, 1, 0); !errors.Is(err, ErrBadEndpoint) {
			t.Errorf("zero grant: %v, want ErrBadEndpoint", err)
		}
	})
	r.eng.Run()
}

func TestGrantCreditsIgnoredOnNonSendEP(t *testing.T) {
	r := newRig(t)
	if err := r.d1.Configure(0, Endpoint{
		Type: EpReceive, BufAddr: 0, SlotSize: 64 + HeaderSize, SlotCount: 2,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("kernel", func(p *sim.Process) {
		// Granting to a receive endpoint or an invalid index must be
		// harmless (hardware ignores it).
		if err := r.d0.GrantCredits(p, 1, 0, 3); err != nil {
			t.Error(err)
		}
		if err := r.d0.GrantCredits(p, 1, 99, 3); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if r.d1.EP(0).Type != EpReceive {
		t.Fatal("receive endpoint corrupted by credit grant")
	}
}

func TestUnlimitedCreditsUnaffectedByGrant(t *testing.T) {
	r := newRig(t)
	if err := r.d1.Configure(0, Endpoint{
		Type: EpReceive, BufAddr: 0, SlotSize: 64 + HeaderSize, SlotCount: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(1, Endpoint{
		Type: EpSend, Target: 1, TargetEP: 0, Credits: UnlimitedCredits, MsgSize: 64,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("kernel", func(p *sim.Process) {
		if err := r.d1.GrantCredits(p, 0, 1, 5); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if got := r.d0.Credits(1); got != UnlimitedCredits {
		t.Fatalf("credits = %d, want unlimited", got)
	}
}
