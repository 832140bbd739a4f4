package bench

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// The chaos-overload tier: the m3fs DTU's admission watermark driven
// end to end under open-loop overload, with graceful-degradation
// acceptance gates, a determinism check across repeated sweeps against
// pinned witnesses, and the zero-overhead-when-idle bit-identity
// proof.

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
			t.Errorf("%s: %d operations timed out or failed with unexpected errors", label, p.Errors)
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

// eloadPinned is each E-load point's witness and run statistics. The
// witness digests every operation's outcome and latency, the engine's
// executed events and final time, and the m3fs DTU's refusals, so a
// change to what the watermark admits, or to any event it schedules,
// moves it.
var eloadPinned = map[string]struct {
	witness uint64
	stats   RunStats
}{
	"capacity": {0x2b40729c71482571, RunStats{ExecutedEvents: 10567, FinalTime: 405275}},
	"x0.5":     {0x5b94c3f097efdd82, RunStats{ExecutedEvents: 11339, FinalTime: 761703}},
	"x1":       {0xb50bf50a61a88f70, RunStats{ExecutedEvents: 10983, FinalTime: 407248}},
	"x2":       {0xc37a0f920c762886, RunStats{ExecutedEvents: 9076, FinalTime: 230161}},
}

// TestOverloadDeterminism: the sweep is bit-reproducible — three runs
// must each produce the pinned witness at every load point.
func TestOverloadDeterminism(t *testing.T) {
	check := func(run, label string, p *ELoadPoint) {
		want, ok := eloadPinned[label]
		if !ok {
			t.Fatalf("%s: no pinned witness for point %s", run, label)
		}
		if p.Witness != want.witness || p.Stats != want.stats {
			t.Errorf("%s %s: witness %#x/%+v, pinned %#x/%+v", run, label,
				p.Witness, p.Stats, want.witness, want.stats)
		}
	}
	for i := 0; i < 3; i++ {
		run := fmt.Sprintf("run#%d", i)
		r, err := ELoad()
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		check(run, "capacity", r.Capacity)
		for _, row := range r.Rows {
			check(run, row.Label, row.Point)
		}
	}
}

// TestOverloadIdleBitIdentical is the zero-overhead-when-idle proof:
// a watermark above every ring's slot count (the largest rings, the
// kernel's syscall gate and m3fs's request gate, hold 48) can never
// refuse, so arming it must leave every observable byte of a lossy run
// — events, traces, metrics, outcomes — bit-identical to an unarmed
// run.
func TestOverloadIdleBitIdentical(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunDifferential(b, 2, differentialPlan(), M3Options{})
	if err != nil {
		t.Fatalf("off: %v", err)
	}
	on, err := RunDifferential(b, 2, differentialPlan(), M3Options{RxWatermark: 49})
	if err != nil {
		t.Fatalf("idle: %v", err)
	}
	if off != on {
		t.Errorf("an idle watermark perturbed the run:\n  off: %v\n  on:  %v", off, on)
	}
}
