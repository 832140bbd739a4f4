package m3_test

import (
	"errors"
	"testing"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/tile"
)

// These tests exercise the kernel's validation paths through the real
// syscall channel: every error is produced by the kernel or a service,
// travels back as a DTU reply, and surfaces as a kif.Error.

func TestSyscallBadSelectors(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "bad", func(env *m3.Env) {
		// Revoke of an unknown selector.
		if err := env.Revoke(9999); !errors.Is(err, kif.ErrNoSuchCap) {
			t.Errorf("revoke: %v, want ErrNoSuchCap", err)
		}
		// Derive from a selector that is not a memory capability.
		mg := env.MemGateAt(12345, 64)
		if _, err := mg.Derive(0, 16, dtu.PermRead); !errors.Is(err, kif.ErrNoSuchCap) {
			t.Errorf("derive: %v, want ErrNoSuchCap", err)
		}
		// Reading through a never-installed capability fails at
		// activation.
		if err := mg.Read(make([]byte, 8), 0); !errors.Is(err, kif.ErrNoSuchCap) {
			t.Errorf("read: %v, want ErrNoSuchCap", err)
		}
	})
	s.eng.Run()
}

func TestDeriveCannotWidenPermissions(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "widen", func(env *m3.Env) {
		ro, err := env.ReqMem(4096, dtu.PermRead)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ro.Derive(0, 1024, dtu.PermRW); !errors.Is(err, kif.ErrNoPerm) {
			t.Errorf("derive widened perms: %v, want ErrNoPerm", err)
		}
		if _, err := ro.Derive(2048, 4096, dtu.PermRead); !errors.Is(err, kif.ErrInvalidArgs) {
			t.Errorf("derive out of range: %v, want ErrInvalidArgs", err)
		}
	})
	s.eng.Run()
}

func TestWriteThroughReadOnlyGateDenied(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "ro", func(env *m3.Env) {
		rw, err := env.ReqMem(4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		ro, err := rw.Derive(0, 1024, dtu.PermRead)
		if err != nil {
			t.Error(err)
			return
		}
		// The DTU itself denies the write: the endpoint was configured
		// with read-only permissions by the kernel.
		if err := ro.Write([]byte("x"), 0); !errors.Is(err, dtu.ErrPerms) {
			t.Errorf("write: %v, want dtu.ErrPerms", err)
		}
	})
	s.eng.Run()
}

func TestOpenSessUnknownService(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "nosvc", func(env *m3.Env) {
		if _, err := env.OpenSess("no-such-service", ""); !errors.Is(err, kif.ErrNoSuchService) {
			t.Errorf("opensess: %v, want ErrNoSuchService", err)
		}
	})
	s.eng.Run()
}

func TestDuplicateServiceNameRejected(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "dup", func(env *m3.Env) {
		// Mounting waits until the real m3fs has registered, so the
		// duplicate registration below cannot win the boot race.
		if _, err := m3fs.MountAt(env, "/", ""); err != nil {
			t.Error(err)
			return
		}
		rg, err := env.NewRecvGate(64, 2)
		if err != nil {
			t.Error(err)
			return
		}
		sel := env.AllocSel()
		var o kif.OStream
		o.Op(kif.SysCreateSrv).Sel(sel).Sel(rg.Sel()).Str("m3fs")
		if _, err := env.Syscall(&o); !errors.Is(err, kif.ErrExists) {
			t.Errorf("createsrv duplicate: %v, want ErrExists", err)
		}
	})
	s.eng.Run()
}

func TestVPEStartInvalidProgram(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "badstart", func(env *m3.Env) {
		vpe, err := env.NewVPE("child", "")
		if err != nil {
			t.Error(err)
			return
		}
		var o kif.OStream
		o.Op(kif.SysVPEStart).Sel(vpe.Sel).U64(999999) // no such program id
		if _, err := env.Syscall(&o); !errors.Is(err, kif.ErrInvalidArgs) {
			t.Errorf("vpestart: %v, want ErrInvalidArgs", err)
		}
	})
	s.eng.Run()
}

func TestActivateProtectedEndpointsRefused(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "protect", func(env *m3.Env) {
		mg, err := env.ReqMem(1024, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		// The kernel must refuse to overwrite the syscall channel
		// (EP0..EP2) — otherwise an application could disconnect
		// itself or forge replies.
		for ep := 0; ep < kif.FirstFreeEP; ep++ {
			var o kif.OStream
			o.Op(kif.SysActivate).Sel(mg.Sel()).I64(int64(ep)).U64(0)
			if _, err := env.Syscall(&o); !errors.Is(err, kif.ErrInvalidArgs) {
				t.Errorf("activate on EP%d: %v, want ErrInvalidArgs", ep, err)
			}
		}
	})
	s.eng.Run()
}

func TestRecvGateCannotBeDelegated(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "rgdel", func(env *m3.Env) {
		rg, err := env.NewRecvGate(64, 2)
		if err != nil {
			t.Error(err)
			return
		}
		vpe, err := env.NewVPE("child", "")
		if err != nil {
			t.Error(err)
			return
		}
		// Receive gates can only be moved after invalidating all
		// senders (§4.5.4); the kernel refuses to delegate them.
		if err := vpe.Delegate(rg.Sel(), 100, 1); !errors.Is(err, kif.ErrNoPerm) {
			t.Errorf("delegate rgate: %v, want ErrNoPerm", err)
		}
	})
	s.eng.Run()
}

func TestSelectorCollisionRejected(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "collide", func(env *m3.Env) {
		mg, err := env.ReqMem(1024, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		// Install something else at the same selector.
		var o kif.OStream
		o.Op(kif.SysReqMem).Sel(mg.Sel()).U64(1024).U64(uint64(dtu.PermRW)).U64(0)
		if _, err := env.Syscall(&o); !errors.Is(err, kif.ErrExists) {
			t.Errorf("selector reuse: %v, want ErrExists", err)
		}
	})
	s.eng.Run()
}

func TestLocateBeyondEOF(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "eof", func(env *m3.Env) {
		c, err := m3fs.MountAt(env, "/", "")
		if err != nil {
			t.Error(err)
			return
		}
		_ = c
		if err := env.VFS.WriteFile("/small", []byte("tiny")); err != nil {
			t.Error(err)
			return
		}
		f, err := env.VFS.Open("/small", m3.OpenRead)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		// Seeking far past the end and reading: m3fs's locate finds no
		// extent; the client surfaces EOF-like failure. (A fresh file
		// handle has no cached extents, so this really asks m3fs.)
		if _, err := f.Seek(1<<20, m3.SeekStart); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 16)
		if _, err := f.Read(buf); err == nil {
			t.Error("read far beyond EOF should fail or report EOF")
		}
	})
	s.eng.Run()
}

func TestExitCodePropagation(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "codes", func(env *m3.Env) {
		for _, want := range []int64{0, 1, -7, 250} {
			vpe, err := env.NewVPE("child", "")
			if err != nil {
				t.Error(err)
				return
			}
			w := want
			if err := vpe.Run(func(child *m3.Env) { child.SetExit(w) }); err != nil {
				t.Error(err)
				return
			}
			code, err := vpe.Wait()
			if err != nil || code != want {
				t.Errorf("exit code = %d, %v; want %d", code, err, want)
			}
			if err := vpe.Revoke(); err != nil {
				t.Error(err)
			}
		}
	})
	s.eng.Run()
}

func TestCreateVPESpecificTypeUnavailable(t *testing.T) {
	s := newSystem(t, 4) // all xtensa
	s.app(t, "wanttype", func(env *m3.Env) {
		if _, err := env.NewVPE("acc", tile.CoreFFT); !errors.Is(err, kif.ErrNoFreePE) {
			t.Errorf("NewVPE(fft): %v, want ErrNoFreePE", err)
		}
	})
	s.eng.Run()
}

// TestRevokeInvalidatesActiveEndpoint: NoC-level enforcement. After a
// revoke, the already-configured endpoint must stop working — the DTU
// itself denies the access, without waiting for a re-activation.
func TestRevokeInvalidatesActiveEndpoint(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "revoke-live", func(env *m3.Env) {
		mg, err := env.ReqMem(4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		// Activate by using it.
		if err := mg.Write([]byte("before"), 0); err != nil {
			t.Error(err)
			return
		}
		if err := env.Revoke(mg.Sel()); err != nil {
			t.Error(err)
			return
		}
		// The endpoint is still bound from libm3's point of view; the
		// hardware must refuse anyway.
		if err := mg.Read(make([]byte, 4), 0); err == nil {
			t.Error("read through revoked capability's live endpoint succeeded")
		}
	})
	s.eng.Run()
}

// TestRevokeDoesNotClobberReusedEndpoint: after the endpoint was
// multiplexed to another gate, revoking the old capability must leave
// the new gate's configuration intact.
func TestRevokeDoesNotClobberReusedEndpoint(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "reuse", func(env *m3.Env) {
		// Fill all five multiplexable endpoints plus one: gate 0 gets
		// evicted when gate 5 activates.
		var gates []*m3.MemGate
		for i := 0; i < 6; i++ {
			mg, err := env.ReqMem(1024, dtu.PermRW)
			if err != nil {
				t.Error(err)
				return
			}
			gates = append(gates, mg)
			if err := mg.Write([]byte{byte(i)}, 0); err != nil {
				t.Error(err)
				return
			}
		}
		// gate[0] was evicted (LRU); its old endpoint now belongs to
		// another gate. Revoking gate[0] must not break the others.
		if err := env.Revoke(gates[0].Sel()); err != nil {
			t.Error(err)
			return
		}
		for i := 1; i < 6; i++ {
			buf := make([]byte, 1)
			if err := gates[i].Read(buf, 0); err != nil {
				t.Errorf("gate %d broken by unrelated revoke: %v", i, err)
				return
			}
			if buf[0] != byte(i) {
				t.Errorf("gate %d data = %d", i, buf[0])
			}
		}
	})
	s.eng.Run()
}

// TestReusedPEInheritsNoEndpoint: a PE handed to a second VPE carries
// none of its previous occupant's endpoints. The second child reads
// through the endpoint index the first child's memory gate used and
// must get an error, not the first child's bytes.
func TestReusedPEInheritsNoEndpoint(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "parent", func(env *m3.Env) {
		const secret = "secret-of-c1"
		ep := -1
		c1, err := env.NewVPE("c1", "")
		if err != nil {
			t.Error(err)
			return
		}
		if err := c1.Run(func(child *m3.Env) {
			mg, err := child.ReqMem(4096, dtu.PermRW)
			if err != nil {
				t.Error(err)
				return
			}
			if err := mg.Write([]byte(secret), 0); err != nil {
				t.Error(err)
				return
			}
			ep = mg.EP()
		}); err != nil {
			t.Error(err)
			return
		}
		if _, err := c1.Wait(); err != nil || ep < 0 {
			t.Errorf("c1: wait %v, endpoint %d", err, ep)
			return
		}
		c2, err := env.NewVPE("c2", "")
		if err != nil {
			t.Error(err)
			return
		}
		if c2.PEID != c1.PEID {
			t.Errorf("c2 on PE %d, want c1's PE %d", c2.PEID, c1.PEID)
			return
		}
		got := make([]byte, len(secret))
		var rerr error
		if err := c2.Run(func(child *m3.Env) {
			rerr = child.DTU().ReadMem(child.P(), ep, 0, got)
		}); err != nil {
			t.Error(err)
			return
		}
		if _, err := c2.Wait(); err != nil {
			t.Error(err)
		}
		if rerr == nil || string(got) == secret {
			t.Errorf("c2 read %q through c1's endpoint %d (err %v)", got, ep, rerr)
		}
		if err := s.kern.CheckEndpoints(); err != nil {
			t.Error(err)
		}
	})
	s.eng.Run()
}

// TestExitInvalidatesSurvivorEndpoint: a parent obtains and activates
// its child's pipe-writer memory capability. The child's exit drops
// it, and by the time the parent's wait returns the endpoint is
// already invalid in hardware.
func TestExitInvalidatesSurvivorEndpoint(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "parent", func(env *m3.Env) {
		c, err := env.NewVPE("reader", "")
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Run(func(child *m3.Env) {
			// NewPipe allocates selectors 1..4: rgate, ringbuffer,
			// sgate(3), writer memory gate(4).
			pr, err := m3.NewPipe(child, 0)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 64)
			for {
				if _, err := pr.Read(buf); err != nil {
					return
				}
			}
		}); err != nil {
			t.Error(err)
			return
		}
		mine := env.AllocSels(2)
		for attempt := 0; c.Obtain(mine, 3, 2) != nil; attempt++ {
			if attempt == 100 {
				t.Error("child never created its pipe")
				return
			}
			env.P().Sleep(500)
		}
		wmem := env.MemGateAt(mine+1, m3.DefaultPipeSize)
		if err := wmem.Write([]byte("x"), 0); err != nil {
			t.Error(err)
			return
		}
		ep := wmem.EP()
		if err := m3.OpenPipeWriter(env, mine, mine+1, 0).Close(); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Wait(); err != nil {
			t.Error(err)
			return
		}
		if typ := env.DTU().EP(ep).Type; typ != dtu.EpInvalid {
			t.Errorf("endpoint %d still configured as %v after the child's exit", ep, typ)
		}
		if err := wmem.Write([]byte("late"), 0); err == nil {
			t.Error("write into the exited child's released ringbuffer succeeded")
		}
		if err := s.kern.CheckEndpoints(); err != nil {
			t.Error(err)
		}
	})
	s.eng.Run()
}

// TestRevokeInvalidatesEveryActivation: one selector activated on two
// endpoints loses both when it is revoked.
func TestRevokeInvalidatesEveryActivation(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "twins", func(env *m3.Env) {
		mg, err := env.ReqMem(4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		twin := env.MemGateAt(mg.Sel(), 4096)
		for _, g := range []*m3.MemGate{mg, twin} {
			if err := g.Write([]byte("live"), 0); err != nil {
				t.Error(err)
				return
			}
		}
		eps := []int{mg.EP(), twin.EP()}
		if eps[0] == eps[1] {
			t.Errorf("both gates on endpoint %d", eps[0])
			return
		}
		if err := env.Revoke(mg.Sel()); err != nil {
			t.Error(err)
			return
		}
		for _, ep := range eps {
			if typ := env.DTU().EP(ep).Type; typ != dtu.EpInvalid {
				t.Errorf("endpoint %d still configured as %v after the revoke", ep, typ)
			}
		}
		if err := s.kern.CheckEndpoints(); err != nil {
			t.Error(err)
		}
	})
	s.eng.Run()
}

// TestDeferredActivationOfRevokedCapFails: a send gate whose
// activation waits for its receive gate is revoked meanwhile. When the
// receiver arrives, the activation fails and leaves no configured
// endpoint behind.
func TestDeferredActivationOfRevokedCapFails(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "parent", func(env *m3.Env) {
		// Create the receive gate and a send gate for it, but activate
		// the receive gate only after the child asked for the send gate.
		var o kif.OStream
		rsel, ssel := env.AllocSel(), env.AllocSel()
		o.Op(kif.SysCreateRGate).Sel(rsel).U64(64).U64(4)
		if _, err := env.Syscall(&o); err != nil {
			t.Error(err)
			return
		}
		o.Reset().Op(kif.SysCreateSGate).Sel(ssel).Sel(rsel).U64(7).I64(1)
		if _, err := env.Syscall(&o); err != nil {
			t.Error(err)
			return
		}
		c, err := env.NewVPE("sender", "")
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Delegate(ssel, 10, 1); err != nil {
			t.Error(err)
			return
		}
		sent, ep := false, -1
		var sendErr error
		if err := c.Run(func(child *m3.Env) {
			sg := child.SendGateAt(10)
			sendErr, sent, ep = sg.Send([]byte("hi")), true, sg.EP()
		}); err != nil {
			t.Error(err)
			return
		}
		env.P().Sleep(20000)
		if sent {
			t.Error("send gate activated before its receive gate")
			return
		}
		if err := env.Revoke(ssel); err != nil {
			t.Error(err)
			return
		}
		buf := kif.RBufSpaceEnd - 4*(64+dtu.HeaderSize)
		o.Reset().Op(kif.SysActivate).Sel(rsel).I64(int64(kif.FirstFreeEP)).U64(uint64(buf))
		if _, err := env.Syscall(&o); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Wait(); err != nil {
			t.Error(err)
		}
		if !errors.Is(sendErr, kif.ErrNoSuchCap) {
			t.Errorf("send through the revoked gate: %v, want ErrNoSuchCap", sendErr)
		}
		if pe := s.plat.PEs[c.PEID]; ep >= 0 || pe.DTU.EP(kif.FirstFreeEP).Type != dtu.EpInvalid {
			t.Errorf("revoked gate left endpoint %d configured as %v", ep, pe.DTU.EP(kif.FirstFreeEP).Type)
		}
		if err := s.kern.CheckEndpoints(); err != nil {
			t.Error(err)
		}
	})
	s.eng.Run()
}
