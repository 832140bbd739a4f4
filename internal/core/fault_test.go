// Kernel-side fault coverage: these tests drive the real syscall
// channel (external test package, full tile/m3 stack) through the
// failure paths the chaos tier depends on — reaping a crashed VPE
// whose capabilities sit mid-delegation-tree, and surfacing a failed
// remote endpoint configuration to the requester instead of dropping
// it.
package core_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// bootSystem builds a platform of n homogeneous PEs with the kernel on
// PE0 and no services.
func bootSystem(n int) (*sim.Engine, *tile.Platform, *core.Kernel) {
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(n))
	kern := core.Boot(plat, 0)
	return eng, plat, kern
}

// TestReapSpansDelegationTree crashes a child VPE that holds a
// delegated memory capability and actively uses it. The watchdog must
// reap the child (crash exit code, empty capability table, every
// endpoint of the dead PE invalidated), the parent's deferred vpewait
// must complete, and the parent's subsequent revoke of the root
// capability — whose delegation tree spanned the crashed VPE — must
// succeed without tripping over the already-pruned subtree.
func TestReapSpansDelegationTree(t *testing.T) {
	eng, plat, kern := bootSystem(3)
	const delegatedSel = kif.CapSel(40)
	var (
		parentDone bool
		waitCode   int64
		victimID   uint64
	)
	_, err := kern.StartInit("parent", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		mg, err := env.ReqMem(4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		vpe, err := env.NewVPE("victim", "")
		if err != nil {
			t.Error(err)
			return
		}
		victimID = vpe.VPEID
		if err := vpe.Delegate(mg.Sel(), delegatedSel, 1); err != nil {
			t.Error(err)
			return
		}
		if err := vpe.Run(func(child *m3.Env) {
			// Hammer the delegated capability until the crash: the cap is
			// activated on one of the child's endpoints when the PE dies.
			cmg := child.MemGateAt(delegatedSel, 4096)
			buf := make([]byte, 64)
			for {
				if err := cmg.Write(buf, 0); err != nil {
					return
				}
			}
		}); err != nil {
			t.Error(err)
			return
		}
		code, err := vpe.Wait()
		if err != nil {
			t.Error(err)
			return
		}
		waitCode = code
		// The tree below mg now contains a cap that died with the child;
		// revoking the root must still work.
		if err := env.Revoke(mg.Sel()); err != nil {
			t.Errorf("revoke spanning crashed VPE: %v", err)
			return
		}
		parentDone = true
		env.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	fault.Attach(kern, fault.Plan{
		Seed:            1,
		Crashes:         []fault.Crash{{PE: 2, At: 200000}},
		HeartbeatPeriod: 5000,
		MaxMissedBeats:  2,
	})
	eng.Run()
	if eng.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
	if !parentDone {
		t.Fatal("parent never finished")
	}
	if waitCode != core.CrashExitCode {
		t.Errorf("vpewait code = %d, want CrashExitCode", waitCode)
	}
	if kern.Stats.VPEsReaped != 1 {
		t.Errorf("VPEsReaped = %d, want 1", kern.Stats.VPEsReaped)
	}
	victim := kern.VPEByID(victimID)
	if victim == nil {
		t.Fatal("victim VPE not found")
	}
	if !victim.Exited() || victim.ExitCode() != core.CrashExitCode {
		t.Errorf("victim exited=%v code=%d, want crashed", victim.Exited(), victim.ExitCode())
	}
	if n := victim.Caps.Len(); n != 0 {
		t.Errorf("victim still holds %d caps (%v)", n, victim.Caps.Sels())
	}
	d := plat.PEs[2].DTU
	for ep := 0; ep < d.NumEndpoints(); ep++ {
		if typ := d.EP(ep).Type; typ != dtu.EpInvalid {
			t.Errorf("dead PE endpoint %d still configured as %s", ep, typ)
		}
	}
}

// TestActivateConfigErrorSurfaces is the regression for a silently
// dropped remote-configuration failure: activating a receive gate with
// a ringbuffer outside the PE's SPM fails at the remote DTU, and that
// failure must travel kernel -> syscall reply -> caller instead of
// leaving the gate half-activated.
func TestActivateConfigErrorSurfaces(t *testing.T) {
	eng, _, kern := bootSystem(2)
	ran := false
	_, err := kern.StartInit("app", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		sel := env.AllocSel()
		var o kif.OStream
		o.Op(kif.SysCreateRGate).Sel(sel).U64(256).U64(4)
		if _, err := env.Syscall(&o); err != nil {
			t.Error(err)
			return
		}
		// BufAddr far beyond any SPM: the remote DTU rejects the
		// configuration and the kernel must relay the failure.
		var a kif.OStream
		a.Op(kif.SysActivate).Sel(sel).I64(int64(kif.FirstFreeEP)).U64(1 << 30)
		if _, err := env.Syscall(&a); !errors.Is(err, kif.ErrInvalidArgs) {
			t.Errorf("activate with bad ringbuffer: %v, want ErrInvalidArgs", err)
		}
		// The same gate activates fine through the library path, which
		// picks a valid buffer — the failure above was the config, not
		// the gate.
		if _, err := env.NewRecvGate(256, 4); err != nil {
			t.Errorf("valid rgate: %v", err)
		}
		ran = true
		env.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !ran {
		t.Fatal("app never finished")
	}
}

// TestReapInvalidatesOverTheNoC pins what a PE crash costs the kernel.
// The victim owns a receive gate whose send gate the parent obtained
// and activated, so reaping the victim must deconfigure that endpoint
// at the surviving parent, then every endpoint of the dead PE, each by
// a remote configuration over the NoC, one round trip after the
// other. The test pins each configuration's endpoint and its cycle
// relative to the reap's start. A kernel that reset the dead PE's
// endpoints directly would skip both the configurations and their
// cycles.
func TestReapInvalidatesOverTheNoC(t *testing.T) {
	eng := sim.NewEngine()
	type cfg struct {
		at     sim.Time
		pe, ep uint64
	}
	var (
		reapAt     sim.Time
		configs    []cfg
		collecting bool
		sgSel      = kif.InvalidSel
	)
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) {
		switch {
		case ev.Kind == obs.EvReap:
			reapAt, collecting = ev.At, true
		case collecting && ev.Kind == obs.EvConfig:
			configs = append(configs, cfg{ev.At - reapAt, uint64(ev.PE), ev.Arg0})
		}
	}})
	pc := tile.Homogeneous(3)
	pc.Obs = tr
	plat := tile.NewPlatform(eng, pc)
	kern := core.Boot(plat, 0)
	_, err := kern.StartInit("parent", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		vpe, err := env.NewVPE("victim", "")
		if err != nil {
			t.Error(err)
			return
		}
		if err := vpe.Run(func(child *m3.Env) {
			rg, err := child.NewRecvGate(64, 4)
			if err != nil {
				t.Error(err)
				return
			}
			if sgSel, err = rg.NewSendGate(1, 4); err != nil {
				t.Error(err)
				return
			}
			for {
				if msg := rg.Recv(); msg != nil {
					rg.Ack(msg)
				}
			}
		}); err != nil {
			t.Error(err)
			return
		}
		for sgSel == kif.InvalidSel {
			ctx.Compute(1000)
		}
		mine := env.AllocSel()
		if err := vpe.Obtain(mine, sgSel, 1); err != nil {
			t.Error(err)
			return
		}
		if err := env.SendGateAt(mine).Send([]byte{1}); err != nil {
			t.Error(err)
			return
		}
		if _, err := vpe.Wait(); err != nil {
			t.Error(err)
			return
		}
		// The parent's own exit configures endpoints too.
		collecting = false
		env.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	fault.Attach(kern, fault.Plan{
		Seed:            1,
		Crashes:         []fault.Crash{{PE: 2, At: 200000}},
		HeartbeatPeriod: 5000,
		MaxMissedBeats:  2,
	})
	eng.Run()
	if kern.Stats.VPEsReaped != 1 {
		t.Fatalf("VPEsReaped = %d, want 1", kern.Stats.VPEsReaped)
	}
	// The parent activated the send gate on its endpoint 4; the
	// configurations then run back to back, 16 cycles apart.
	parentNode, deadNode := uint64(plat.PEs[1].Node), uint64(plat.PEs[2].Node)
	want := []cfg{{221, parentNode, 4}}
	for ep := 0; ep < plat.PEs[2].DTU.NumEndpoints(); ep++ {
		want = append(want, cfg{237 + 16*sim.Time(ep), deadNode, uint64(ep)})
	}
	if !reflect.DeepEqual(configs, want) {
		t.Errorf("reap at %d configured (cycles after the reap, node, endpoint)\n got %v\nwant %v", reapAt, configs, want)
	}
}

// TestExitSkipsEndpointsOfResetPE: a parent exits while its child
// runs with a delegated memory capability activated on one of its
// endpoints. The exit walk drops the delegated copy (the parent's
// memory capability has the lower selector) and then the child's VPE
// capability, which resets the child's PE and with it every endpoint.
// So the walk must not invalidate the child's endpoint over the NoC
// afterwards, and the isolation invariant still holds.
func TestExitSkipsEndpointsOfResetPE(t *testing.T) {
	eng := sim.NewEngine()
	const delegatedSel = kif.CapSel(40)
	var (
		childID   uint64
		exitAt    sim.Time
		exiting   bool
		writing   bool
		childCfgs int
		childNode = -1
	)
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) {
		if exiting && ev.Kind == obs.EvConfig && int(ev.PE) == childNode {
			childCfgs++
		}
	}})
	pc := tile.Homogeneous(3)
	pc.Obs = tr
	plat := tile.NewPlatform(eng, pc)
	kern := core.Boot(plat, 0)
	_, err := kern.StartInit("parent", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		mg, err := env.ReqMem(4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		vpe, err := env.NewVPE("child", "")
		if err != nil {
			t.Error(err)
			return
		}
		childID, childNode = vpe.VPEID, int(plat.PEs[vpe.PEID].Node)
		if err := vpe.Delegate(mg.Sel(), delegatedSel, 1); err != nil {
			t.Error(err)
			return
		}
		if err := vpe.Run(func(child *m3.Env) {
			cmg := child.MemGateAt(delegatedSel, 4096)
			buf := make([]byte, 64)
			for {
				if err := cmg.Write(buf, 0); err != nil {
					return
				}
				writing = true
			}
		}); err != nil {
			t.Error(err)
			return
		}
		for !writing {
			ctx.Compute(1000)
		}
		exitAt, exiting = eng.Now(), true
		env.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	child := kern.VPEByID(childID)
	if exitAt == 0 || child == nil || !child.Exited() {
		t.Fatalf("the parent never exited with its child running (exit at %d)", exitAt)
	}
	if childCfgs != 0 {
		t.Errorf("the exit walk configured %d endpoints of the PE it reset, want 0", childCfgs)
	}
	d := child.PE.DTU
	for ep := 0; ep < d.NumEndpoints(); ep++ {
		if typ := d.EP(ep).Type; typ != dtu.EpInvalid {
			t.Errorf("reset PE endpoint %d still configured as %s", ep, typ)
		}
	}
	if err := kern.CheckEndpoints(); err != nil {
		t.Error(err)
	}
}
