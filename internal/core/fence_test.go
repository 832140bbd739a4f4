package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// TestSessionOfRestartedServiceIsFenced opens an m3fs session, crashes
// m3fs and lets the supervisor restart it. The session hangs off the
// dead incarnation's service capability in the revocation tree, so the
// reap revokes it: an exchange on it and a revoke of it both fail with
// ErrNoSuchCap, one of the codes the client library recovers from by
// reopening, and neither reaches the new incarnation. A fresh session
// against the new incarnation works.
func TestSessionOfRestartedServiceIsFenced(t *testing.T) {
	eng, _, kern := bootSystem(4)
	if _, err := kern.StartInitSupervised("m3fs", "", m3fs.Program(kern, m3fs.Config{}, nil),
		core.RestartPolicy{MaxRestarts: 1, Backoff: 4000}); err != nil {
		t.Fatal(err)
	}
	const crashAt, afterRestart = 400000, 800000
	var exchErr, revokeErr, reopenErr error
	var opened sim.Time
	var callsBefore, callsAfter uint64
	if _, err := kern.StartInit("app", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		sess, err := env.OpenSess("m3fs", "")
		for errors.Is(err, kif.ErrNoSuchService) {
			ctx.Compute(1000)
			sess, err = env.OpenSess("m3fs", "")
		}
		if err != nil {
			t.Errorf("opensess: %v", err)
			return
		}
		opened = ctx.Now()
		ctx.Compute(afterRestart - ctx.Now())
		callsBefore = kern.Stats.ServiceCalls
		_, exchErr = env.ExchangeSess(sess, true, env.AllocSel(), 1, nil)
		revokeErr = env.Revoke(sess)
		ctx.Compute(10000)
		callsAfter = kern.Stats.ServiceCalls
		_, reopenErr = env.OpenSess("m3fs", "")
	}); err != nil {
		t.Fatal(err)
	}
	fault.Attach(kern, fault.Plan{
		Seed:            1,
		Crashes:         []fault.Crash{{PE: 1, At: crashAt}},
		HeartbeatPeriod: 5000,
		MaxMissedBeats:  2,
	})
	eng.Run()
	if opened == 0 || opened >= crashAt {
		t.Fatalf("session opened at %d, want before the crash at %d", opened, crashAt)
	}
	if kern.Stats.ServiceRestarts != 1 || kern.ServiceEpoch("m3fs") != 2 {
		t.Fatalf("restarts = %d, epoch = %d; want m3fs restarted once by %d",
			kern.Stats.ServiceRestarts, kern.ServiceEpoch("m3fs"), afterRestart)
	}
	if !errors.Is(exchErr, kif.ErrNoSuchCap) {
		t.Errorf("exchange on the old session: %v, want %v", exchErr, kif.ErrNoSuchCap)
	}
	if !errors.Is(revokeErr, kif.ErrNoSuchCap) {
		t.Errorf("revoke of the old session: %v, want %v", revokeErr, kif.ErrNoSuchCap)
	}
	if callsAfter != callsBefore {
		t.Errorf("the old session made %d service calls, want 0", callsAfter-callsBefore)
	}
	if reopenErr != nil {
		t.Errorf("opensess against the new incarnation: %v", reopenErr)
	}
}
