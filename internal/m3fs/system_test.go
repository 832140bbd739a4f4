package m3fs

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/sim"
	"repro/internal/tile"
)

// system is a booted platform with a kernel and an m3fs service, for
// tests that speak to the service through real clients.
type system struct {
	eng  *sim.Engine
	kern *core.Kernel
	svc  *Service
}

// newSystem boots numPEs PEs with the kernel and m3fs (no journal).
func newSystem(t *testing.T, numPEs int) *system {
	t.Helper()
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(numPEs))
	s := &system{eng: eng, kern: core.Boot(plat, 0)}
	if _, err := s.kern.StartInit("m3fs", "", Program(s.kern, Config{}, func(svc *Service) { s.svc = svc })); err != nil {
		t.Fatal(err)
	}
	return s
}

// app starts prog as an init VPE.
func (s *system) app(t *testing.T, name string, prog func(env *m3.Env)) {
	t.Helper()
	if _, err := s.kern.StartInit(name, "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, s.kern)
		prog(env)
		env.Exit(0)
	}); err != nil {
		t.Fatal(err)
	}
}

// mkdirAndStat makes dir through c and stats it back.
func mkdirAndStat(c *Client, dir string) error {
	if err := c.Mkdir(dir); err != nil {
		return err
	}
	_, err := c.Stat(dir)
	return err
}

// TestSecondClientOnOneVPEIsNotDeduped: two mounts in one program are
// two clients, each with its own key, so the second client's first
// mutation is applied, not answered as a retransmit of the first's.
func TestSecondClientOnOneVPEIsNotDeduped(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "app", func(env *m3.Env) {
		for _, dir := range []string{"/a", "/b"} {
			c, err := Mount(env, "")
			if err != nil {
				t.Error(err)
				return
			}
			if err := mkdirAndStat(c, dir); err != nil {
				t.Errorf("client for %s: %v", dir, err)
			}
		}
	})
	s.eng.Run()
	if s.svc.Deduped != 0 {
		t.Fatalf("m3fs deduplicated %d requests of two fresh clients", s.svc.Deduped)
	}
}

// TestLaterVPEOnReusedPEIsNotDeduped: a child VPE that gets the PE of
// an earlier, exited child is a new client, whose first mutation m3fs
// applies.
func TestLaterVPEOnReusedPEIsNotDeduped(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "parent", func(env *m3.Env) {
		pe := -1
		for _, dir := range []string{"/a", "/b"} {
			child, err := env.NewVPE("child", "")
			if err != nil {
				t.Error(err)
				return
			}
			if pe >= 0 && child.PEID != pe {
				t.Errorf("second child on PE %d, want the first's PE %d", child.PEID, pe)
				return
			}
			pe = child.PEID
			if err := child.Run(func(cenv *m3.Env) {
				c, err := Mount(cenv, "")
				if err == nil {
					err = mkdirAndStat(c, dir)
				}
				if err != nil {
					t.Errorf("child for %s: %v", dir, err)
				}
			}); err != nil {
				t.Error(err)
				return
			}
			if _, err := child.Wait(); err != nil {
				t.Error(err)
				return
			}
		}
	})
	s.eng.Run()
	if s.svc.Deduped != 0 {
		t.Fatalf("m3fs deduplicated %d requests of two fresh clients", s.svc.Deduped)
	}
}

// TestTruncatedRequestRefused: a stat or open whose arguments end
// early is refused with ErrInvalidArgs. Served anyway, its missing
// path would decode as "" and resolve to the root.
func TestTruncatedRequestRefused(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "app", func(env *m3.Env) {
		c, err := Mount(env, "")
		if err != nil {
			t.Error(err)
			return
		}
		for _, tc := range []struct {
			name string
			msg  func(o *kif.OStream)
		}{
			{"stat without its path", func(o *kif.OStream) { o.U64(fsStat).U64(c.key).U64(0) }},
			{"stat with a cut path", func(o *kif.OStream) { o.U64(fsStat).U64(c.key).U64(0).U64(16).U64(0) }},
			{"open without flags", func(o *kif.OStream) { o.U64(fsOpen).U64(c.key).U64(0).Str("/") }},
			{"open with a cut path", func(o *kif.OStream) { o.U64(fsOpen).U64(c.key).U64(0).U64(64) }},
		} {
			var o kif.OStream
			tc.msg(&o)
			if _, err := c.callOnce(&o); !errors.Is(err, kif.ErrInvalidArgs) {
				t.Errorf("%s: err %v, want %v", tc.name, err, kif.ErrInvalidArgs)
			}
		}
		// A whole request still goes through.
		if _, err := c.Stat("/"); err != nil {
			t.Errorf("stat /: %v", err)
		}
	})
	s.eng.Run()
}

// TestReadDirIndexPastEnd: a readdir index past the directory's end,
// up to the largest the wire can carry, answers an empty chunk with
// the directory's total.
func TestReadDirIndexPastEnd(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "app", func(env *m3.Env) {
		c, err := Mount(env, "")
		if err == nil {
			err = c.Mkdir("/d")
		}
		if err != nil {
			t.Error(err)
			return
		}
		for _, idx := range []uint64{1, 8, 1 << 62, 1 << 63, ^uint64(0)} {
			var o kif.OStream
			o.U64(fsReadDir).U64(c.key).U64(0).Str("/").U64(idx)
			is, err := c.callOnce(&o)
			if total, n := is.U64(), is.U64(); err != nil || total != 1 || n != 0 {
				t.Errorf("readdir / from %d: total %d, %d entries, err %v; want 1, 0, nil", idx, total, n, err)
			}
		}
	})
	s.eng.Run()
}
