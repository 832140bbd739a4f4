package m3_test

import (
	"testing"

	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
)

// roundTripAllocs runs op once per round inside an application VPE
// and returns the heap allocations of one warm round: the kernel, m3fs
// and the application all park between rounds, so the engine is driven
// one round at a time from outside.
func roundTripAllocs(t *testing.T, setup func(env *m3.Env) func() error) float64 {
	t.Helper()
	s := newSystem(t, 3)
	kick := sim.NewSignal(s.eng)
	var err error
	s.app(t, "client", func(env *m3.Env) {
		op := setup(env)
		env.P().SetDaemon()
		for err == nil {
			kick.Wait(env.P())
			err = op()
		}
	})
	round := func() {
		kick.Notify()
		s.eng.Run()
	}
	s.eng.Run() // boot, set up, and park on kick
	// Many turns of the calendar wheel: each bucket allocates its
	// backing array the first time it holds an event.
	for i := 0; i < 5000; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(200, round)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f allocations per round trip", allocs)
	return allocs
}

// TestNullSyscallAllocs: a warm null syscall marshals into the Env's
// reused stream, recycles both messages at their Ack, and allocates
// nothing.
func TestNullSyscallAllocs(t *testing.T) {
	allocs := roundTripAllocs(t, func(env *m3.Env) func() error { return env.Noop })
	if allocs > 0 {
		t.Fatalf("a null syscall allocates %.1f objects, want 0", allocs)
	}
}

// TestStatAllocs: a warm m3fs stat round trip allocates nothing. The
// service resolves the path from a view of the request message; only
// a mutation that stores a name as a directory entry copies it.
func TestStatAllocs(t *testing.T) {
	allocs := roundTripAllocs(t, func(env *m3.Env) func() error {
		c, err := m3fs.MountAt(env, "/", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Mkdir("/dir"); err != nil {
			t.Fatal(err)
		}
		return func() error {
			_, err := c.Stat("/dir")
			return err
		}
	})
	if allocs > 0 {
		t.Fatalf("an m3fs stat allocates %.1f objects, want 0", allocs)
	}
}
