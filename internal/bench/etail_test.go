package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// End-to-end tests for the critical-path attribution and SLO layer:
// byte-identical reports across repetitions (the `m3sim slo`
// determinism acceptance gate), report stability under chaos-tier
// fault injection with service recovery, the determinism of the E-tail
// experiment, and the zero-overhead-when-off
// proof for the attribution/SLO sink.

// The bench-suite SLO names (package constants: m3vet obsname).
const (
	benchSLOTail  = "bench_critpath_tail"
	benchSLOAvail = "bench_critpath_avail"
)

// benchSLOSet builds the standard objective pair the report tests use.
func benchSLOSet() *obs.SLOSet {
	s := obs.NewSLOSet()
	s.Objective(benchSLOTail, obs.SLOConfig{
		Objective: 0.99, LatencyBound: 1 << 14, Window: 1 << 18})
	s.Objective(benchSLOAvail, obs.SLOConfig{Objective: 0.999, Window: 1 << 18})
	return s
}

// writeCritPathReport serializes everything `m3sim slo` reports — counters,
// quantile blame, exemplar trees event by event, folded stacks, and
// the SLO snapshot — into one deterministic byte blob.
func writeCritPathReport(t *testing.T, cp *obs.CritPath, slos *obs.SLOSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	rep := cp.ReportAt([]float64{0.5, 0.99, 0.999})
	fmt.Fprintf(&buf, "completed=%d failed=%d evicted=%d truncated=%d dropped=%d total=%v\n",
		rep.Completed, rep.Failed, rep.Evicted, rep.Truncated, rep.Dropped, rep.Total)
	for _, q := range rep.Quantiles {
		fmt.Fprintf(&buf, "q%g span=%d kind=%s lat=%d fail=%v blame=%v\n",
			q.Q, q.Span, q.Kind, q.Latency, q.Fail, q.Blame)
	}
	for _, ex := range rep.Exemplars {
		fmt.Fprintf(&buf, "ex span=%d lat=%d fail=%v trunc=%v blame=%v\n",
			ex.Span, ex.Latency(), ex.Fail, ex.Truncated, ex.Blame)
		for _, ev := range ex.Events {
			fmt.Fprintf(&buf, "  %s\n", ev)
		}
	}
	if err := cp.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if err := slos.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// critPathRun executes one workload with the attribution engine and
// SLO set wired as the tracer sink and returns the run statistics plus
// the serialized report.
func critPathRun(t *testing.T, b workload.Benchmark) (RunStats, []byte) {
	t.Helper()
	slos := benchSLOSet()
	cp := obs.NewCritPath(obs.CritPathOptions{Exemplars: 4, SLO: slos})
	tr := obs.New(obs.Options{Sink: cp.Consume})
	st := mustRun(t, Scenario{Workload: b, M3Options: M3Options{Obs: tr}}).Stats
	if cp.Completed() == 0 {
		t.Fatal("critpath run completed no requests")
	}
	return st, writeCritPathReport(t, cp, slos)
}

// TestCritPathReportDeterministic: three runs of the same workload
// must produce byte-identical attribution reports — counters, quantile blame, exemplar span trees, folded
// stacks, and SLO snapshot (the `m3sim slo` acceptance gate).
func TestCritPathReportDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	st1, rep1 := critPathRun(t, b)
	for i := 0; i < 2; i++ {
		st2, rep2 := critPathRun(t, b)
		if st1 != st2 {
			t.Fatalf("rerun %d: run stats differ: %+v vs %+v", i+2, st2, st1)
		}
		if !bytes.Equal(rep1, rep2) {
			t.Fatalf("rerun %d: report differs:\n%s\n---\n%s", i+2, rep2, rep1)
		}
	}
}

// critPathChaosRun is critPathRun over the chaos-tier recovery
// configuration: two instances, journaled supervised m3fs, a mid-run
// service crash and restart.
func critPathChaosRun(t *testing.T, b workload.Benchmark, plan fault.Plan) (RunStats, []byte) {
	t.Helper()
	slos := benchSLOSet()
	cp := obs.NewCritPath(obs.CritPathOptions{Exemplars: 4, SLO: slos})
	opt := recoverOpts()
	opt.Obs = obs.New(obs.Options{Sink: cp.Consume})
	cr, err := Scenario{Workload: b, Instances: 2, Faults: &plan, M3Options: opt}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Completed() == 0 {
		t.Fatal("chaos critpath run completed no requests")
	}
	return cr.Stats, writeCritPathReport(t, cp, slos)
}

// TestCritPathChaosDeterministic: the attribution report stays
// byte-identical under fault injection and service recovery.
func TestCritPathChaosDeterministic(t *testing.T) {
	b, err := workload.ByName("untar")
	if err != nil {
		t.Fatal(err)
	}
	opts := recoverOpts()
	fsCrashAt := midRunCrashAtOpt(t, b, 2, fault.Plan{Seed: chaosSeed}, opts)
	plan := fault.Plan{Seed: chaosSeed, Crashes: []fault.Crash{{PE: 1, At: fsCrashAt}}}
	st1, rep1 := critPathChaosRun(t, b, plan)
	st2, rep2 := critPathChaosRun(t, b, plan)
	if st1 != st2 {
		t.Fatalf("chaos rerun stats differ: %+v vs %+v", st2, st1)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("chaos rerun report differs:\n%s\n---\n%s", rep2, rep1)
	}
}

// TestCritPathSLOZeroOverhead: wiring the attribution engine and SLO
// set as the tracer sink must not change the simulation at all — the
// engine statistics, breakdown, and per-PE DTU, kernel and NoC counters
// stay bit-identical to a run with no tracer installed. The SLO layer
// schedules no events; it only observes completions.
func TestCritPathSLOZeroOverhead(t *testing.T) {
	for _, name := range []string{"tar", "find"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := fingerprint(mustRun(t, Scenario{Workload: b}))
		slos := benchSLOSet()
		cp := obs.NewCritPath(obs.CritPathOptions{SLO: slos})
		tr := obs.New(obs.Options{Sink: cp.Consume})
		if with := fingerprint(mustRun(t, Scenario{Workload: b, M3Options: M3Options{Obs: tr}})); with != base {
			t.Fatalf("%s: critpath+SLO sink changed the run:\n%s\nvs baseline\n%s", name, with, base)
		}
		if cp.Completed() == 0 {
			t.Fatalf("%s: attribution engine saw no requests", name)
		}
	}
}

// TestETailDeterministic: two runs of the E-tail experiment must
// produce the identical result — every blame cell, SLO count, and the
// per-workload population witness.
func TestETailDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two E-tail sweeps in -short mode")
	}
	ref, err := ETail()
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range ref.Workloads {
		if wr.M3.Requests == 0 || wr.Lx.Requests == 0 {
			t.Fatalf("%s: empty request population: %+v", wr.Workload, wr)
		}
	}
	got, err := ETail()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("E-tail rerun differs:\n%+v\n---\n%+v", got, ref)
	}
}
