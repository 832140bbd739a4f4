package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/m3fs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recoverOpts is the harness configuration for the recovery tier: a
// journaled m3fs under kernel supervision with one spare PE to respawn
// onto.
func recoverOpts() M3Options {
	return M3Options{
		ExtraPEs: 1,
		FS:       m3fs.Config{Journal: true},
		FSPolicy: core.RestartPolicy{MaxRestarts: 1, Backoff: 5000},
	}
}

// chaosSeed keeps every chaos schedule in this file on one replayable
// stream family.
const chaosSeed uint64 = 0xC0FFEE

// midRunCrashAt derives a crash time that lands mid-way through the
// run phase of instance 0: it executes the same configuration without
// the crash and places the crash 40% into the observed run window.
// The added watchdog probe traffic shifts timing by far less than
// that margin, and because everything is deterministic the derived
// time hits the same simulation state on every run.
func midRunCrashAt(t *testing.T, b workload.Benchmark, n int, plan fault.Plan) sim.Time {
	return midRunCrashAtOpt(t, b, n, plan, M3Options{})
}

// midRunCrashAtOpt is midRunCrashAt for a non-default harness
// configuration (the recovery tests boot with a journaled, supervised
// m3fs, which shifts timing).
func midRunCrashAtOpt(t *testing.T, b workload.Benchmark, n int, plan fault.Plan, opt M3Options) sim.Time {
	t.Helper()
	plan.Crashes = nil
	cr, err := Scenario{Workload: b, Instances: n, Faults: &plan, M3Options: opt}.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := cr.Outcomes[0]
	if !out.Finished {
		t.Fatalf("baseline instance 0 did not finish: %v", out.Err)
	}
	return out.StartAt + out.RunTime*2/5
}

// tracedChaosRun runs one chaos configuration with the structured
// tracer installed and returns the run plus a hash over the complete
// event stream.
func tracedChaosRun(t *testing.T, b workload.Benchmark, n int, plan fault.Plan, opt M3Options) (*Result, uint64) {
	t.Helper()
	sh := newStreamHash()
	opt.Obs = obs.New(obs.Options{Sink: sh.Consume})
	cr, err := Scenario{Workload: b, Instances: n, Faults: &plan, M3Options: opt}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cr, sh.Sum64()
}

// outcomeSummary flattens the per-instance outcomes into a comparable
// string (errors by message; the VPE pointer is excluded).
func outcomeSummary(cr *Result) string {
	s := ""
	for _, o := range cr.Outcomes {
		s += fmt.Sprintf("%s fin=%v start=%d end=%d err=%v; ", o.Name, o.Finished, o.StartAt, o.EndAt, o.Err)
	}
	return s
}

// TestFaultDeterminism is the acceptance witness for the tentpole:
// with every fault class armed at once — packet loss, header
// corruption, transfer-engine stalls, a DRAM brownout, and a mid-run
// PE crash that kills a VPE between syscalls and mid-transfer — three
// runs of the identical (configuration, seed) pair must execute the
// identical event schedule: same event count, same final time, same
// hash over every structured event, same per-instance outcomes.
//
// Swapping the fault layer's seeded splitmix64 streams for math/rand
// global state makes this fail (verified locally; see docs/FAULTS.md).
func TestFaultDeterminism(t *testing.T) {
	b, err := workload.ByName("cat+tr")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{
		Seed:        chaosSeed,
		DropRate:    0.01,
		CorruptRate: 0.002,
		StallRate:   0.05,
	}
	crashAt := midRunCrashAt(t, b, 2, plan)
	plan.Brownouts = []fault.Window{{Start: crashAt / 2, End: crashAt, ExtraLatency: 40}}
	plan.Crashes = []fault.Crash{{PE: 2, At: crashAt}}

	cr1, h1 := tracedChaosRun(t, b, 2, plan, M3Options{})
	if cr1.Stats.ExecutedEvents == 0 {
		t.Fatal("run executed no events")
	}
	if cr1.Inj.CrashesFired() != 1 {
		t.Fatalf("crash did not fire (at %d, final time %d)", crashAt, cr1.Stats.FinalTime)
	}
	if cr1.Kern.Stats.VPEsReaped == 0 {
		t.Fatal("watchdog reaped no VPE after the crash")
	}
	sum1 := outcomeSummary(cr1)
	for i := 0; i < 2; i++ {
		cr2, h2 := tracedChaosRun(t, b, 2, plan, M3Options{})
		if cr1.Stats != cr2.Stats {
			t.Fatalf("run %d stats differ: %+v vs %+v", i+2, cr2.Stats, cr1.Stats)
		}
		if h1 != h2 {
			t.Fatalf("run %d trace hash differs: %#x vs %#x (same stats %+v — an order-only divergence)",
				i+2, h2, h1, cr1.Stats)
		}
		if sum2 := outcomeSummary(cr2); sum2 != sum1 {
			t.Fatalf("run %d outcomes differ:\n%s\nvs\n%s", i+2, sum2, sum1)
		}
	}
}

// assertIsolation checks the isolation invariants that must hold after
// any chaos run: the engine drained without deadlock, no exited VPE
// retains a capability, and the filesystem service holds no session
// state for departed clients.
func assertIsolation(t *testing.T, cr *Result) {
	t.Helper()
	if cr.Eng.Deadlocked() {
		t.Error("simulation deadlocked")
	}
	for _, vpe := range cr.Kern.VPEs() {
		if vpe.Exited() && vpe.Caps.Len() != 0 {
			t.Errorf("exited vpe %d (%s) still holds %d capabilities (sels %v)",
				vpe.ID, vpe.Name, vpe.Caps.Len(), vpe.Caps.Sels())
		}
	}
	if cr.FS != nil && cr.FS.SessionCount() != 0 {
		t.Errorf("m3fs still holds %d sessions", cr.FS.SessionCount())
	}
	// Every configured endpoint of a live VPE traces to a capability in
	// its table, and no crashed PE keeps a configured endpoint.
	if err := cr.Kern.CheckEndpoints(); err != nil {
		t.Error(err)
	}
}

// TestChaosMatrix drives every application workload through the fault
// tiers: fault-free (reliability armed but idle), 1% per-hop packet
// loss, and a mid-run crash of the PE running instance 0. Surviving
// instances must complete, the crashed VPE must be reaped with its
// capabilities revoked and its PE's endpoints deconfigured, and the
// system must wind down without deadlock — the paper's isolation story
// surviving hardware failure.
func TestChaosMatrix(t *testing.T) {
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			plan := fault.Plan{Seed: chaosSeed}
			crashAt := midRunCrashAt(t, b, 2, plan)

			t.Run("none", func(t *testing.T) {
				cr, err := Scenario{Workload: b, Instances: 2, Faults: &fault.Plan{Seed: chaosSeed}}.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range cr.Outcomes {
					if !o.Finished || o.Err != nil {
						t.Errorf("%s: finished=%v err=%v", o.Name, o.Finished, o.Err)
					}
				}
				if n := cr.Inj.Retransmits(); n != 0 {
					t.Errorf("fault-free run retransmitted %d times", n)
				}
				assertIsolation(t, cr)
			})

			t.Run("loss", func(t *testing.T) {
				cr, err := Scenario{Workload: b, Instances: 2, Faults: &fault.Plan{Seed: chaosSeed, DropRate: 0.01}}.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range cr.Outcomes {
					if !o.Finished || o.Err != nil {
						t.Errorf("%s: finished=%v err=%v", o.Name, o.Finished, o.Err)
					}
				}
				if cr.Inj.Retransmits() == 0 {
					t.Error("1% loss run saw no retransmissions")
				}
				assertIsolation(t, cr)
			})

			t.Run("crash", func(t *testing.T) {
				plan := fault.Plan{Seed: chaosSeed, Crashes: []fault.Crash{{PE: 2, At: crashAt}}}
				cr, err := Scenario{Workload: b, Instances: 2, Faults: &plan}.Run()
				if err != nil {
					t.Fatal(err)
				}
				if cr.Inj.CrashesFired() != 1 {
					t.Fatalf("crash at %d did not fire (final time %d)", crashAt, cr.Stats.FinalTime)
				}
				victim := cr.Outcomes[0].VPE
				if victim.PE.ID != 2 {
					t.Fatalf("instance 0 on PE %d, crash targeted PE 2", victim.PE.ID)
				}
				if cr.Outcomes[0].Finished {
					t.Error("crashed instance reported completion")
				}
				if !victim.Exited() || victim.ExitCode() != core.CrashExitCode {
					t.Errorf("victim vpe %d: exited=%v code=%d, want reaped with code %d",
						victim.ID, victim.Exited(), victim.ExitCode(), core.CrashExitCode)
				}
				surv := cr.Outcomes[1]
				if !surv.Finished || surv.Err != nil {
					t.Errorf("survivor did not complete: finished=%v err=%v", surv.Finished, surv.Err)
				}
				for ep := 0; ep < victim.PE.DTU.NumEndpoints(); ep++ {
					if typ := victim.PE.DTU.EP(ep).Type; typ != dtu.EpInvalid {
						t.Errorf("victim PE endpoint %d still configured as %v", ep, typ)
					}
				}
				assertIsolation(t, cr)
			})

			// recover: the m3fs PE itself crashes mid-run. The kernel
			// supervisor respawns the service on the spare PE, the
			// journal replays the pre-crash metadata, and every client
			// re-establishes its session transparently — availability
			// through a service crash.
			t.Run("recover", func(t *testing.T) {
				opts := recoverOpts()
				fsCrashAt := midRunCrashAtOpt(t, b, 2, fault.Plan{Seed: chaosSeed}, opts)
				plan := fault.Plan{Seed: chaosSeed, Crashes: []fault.Crash{{PE: 1, At: fsCrashAt}}}
				cr, h1 := tracedChaosRun(t, b, 2, plan, opts)
				if cr.Inj.CrashesFired() != 1 {
					t.Fatalf("m3fs crash at %d did not fire (final time %d)", fsCrashAt, cr.Stats.FinalTime)
				}
				if got := cr.Kern.Stats.ServiceRestarts; got != 1 {
					t.Fatalf("supervisor restarted the service %d times, want 1", got)
				}
				if len(cr.FSReadyAt) != 2 {
					t.Fatalf("m3fs became ready %d times (%v), want boot + restart", len(cr.FSReadyAt), cr.FSReadyAt)
				}
				if cr.FSReadyAt[1] <= fsCrashAt {
					t.Fatalf("restart ready at %d, before the crash at %d", cr.FSReadyAt[1], fsCrashAt)
				}
				if !cr.FS.Recovered {
					t.Error("restarted m3fs did not replay a journal")
				}
				if cr.FS.ReplayedRecords == 0 {
					t.Error("journal replay applied no records despite pre-crash mutations")
				}
				for _, o := range cr.Outcomes {
					if !o.Finished || o.Err != nil {
						t.Errorf("%s did not complete through the restart: finished=%v err=%v",
							o.Name, o.Finished, o.Err)
					}
				}
				// The recovered image must be self-consistent: re-parse
				// it, which runs the full invariant checker.
				img := cr.FS.FS().MarshalImage(nil)
				if _, err := m3fs.UnmarshalImage(img, nil); err != nil {
					t.Errorf("recovered filesystem image fails fsck: %v", err)
				}
				assertIsolation(t, cr)

				// Recovery is deterministic: repeated runs execute the
				// identical event schedule.
				for i := 0; i < 2; i++ {
					cr2, h2 := tracedChaosRun(t, b, 2, plan, opts)
					if cr.Stats != cr2.Stats {
						t.Fatalf("recover rerun %d stats differ: %+v vs %+v", i+2, cr2.Stats, cr.Stats)
					}
					if h1 != h2 {
						t.Fatalf("recover rerun %d trace hash differs: %#x vs %#x", i+2, h2, h1)
					}
				}
			})

			// norestart: the same m3fs crash without a restart policy.
			// There is nothing to fail over to — but clients must get
			// clean timeout/session-dead errors, never a hang.
			t.Run("norestart", func(t *testing.T) {
				opts := M3Options{FS: m3fs.Config{Journal: true}}
				fsCrashAt := midRunCrashAtOpt(t, b, 2, fault.Plan{Seed: chaosSeed}, opts)
				plan := fault.Plan{Seed: chaosSeed, Crashes: []fault.Crash{{PE: 1, At: fsCrashAt}}}
				cr, err := Scenario{Workload: b, Instances: 2, Faults: &plan, M3Options: opts}.Run()
				if err != nil {
					t.Fatal(err)
				}
				if cr.Inj.CrashesFired() != 1 {
					t.Fatalf("m3fs crash at %d did not fire (final time %d)", fsCrashAt, cr.Stats.FinalTime)
				}
				if got := cr.Kern.Stats.ServiceRestarts; got != 0 {
					t.Fatalf("unsupervised service restarted %d times", got)
				}
				if cr.Eng.Deadlocked() {
					t.Fatal("run deadlocked: a client blocked forever on the dead service")
				}
				for _, o := range cr.Outcomes {
					if !o.Finished && o.Err == nil {
						t.Errorf("%s neither finished nor failed cleanly (end=%d)", o.Name, o.EndAt)
					}
				}
				// The dead service still counts its sessions, so only the
				// endpoint invariant of assertIsolation applies here.
				if err := cr.Kern.CheckEndpoints(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}
