package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/linuxos"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The whole stack — engine, NoC, DTUs, kernel, services, workloads —
// must be deterministic: identical configurations produce identical
// cycle counts. This is what makes the reproduction's numbers
// meaningful.

func TestM3RunDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	first := mustRun(t, Scenario{Workload: b}).Breakdown()
	for i := 0; i < 2; i++ {
		again := mustRun(t, Scenario{Workload: b}).Breakdown()
		if again != first {
			t.Fatalf("run %d differs: %+v vs %+v", i+2, again, first)
		}
	}
}

// mustRun runs sc and fails the test on a harness error.
func mustRun(t *testing.T, sc Scenario) *Result {
	t.Helper()
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fingerprint renders what a run without a tracer still exposes: the
// engine statistics, the breakdown, and the per-PE DTU, kernel and NoC
// counters. Tests comparing a traced run against an untraced one use
// it where no event stream exists on one side.
func fingerprint(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stats=%+v breakdown=%+v\n", r.Stats, r.Breakdown())
	for _, pe := range r.Plat.PEs {
		fmt.Fprintf(&sb, "pe%d dtu=%+v idle=%d\n", pe.ID, pe.DTU.Stats, pe.DTU.IdleCyclesAt(r.Stats.FinalTime))
	}
	fmt.Fprintf(&sb, "kernel=%+v\n", r.Kern.Stats)
	n := r.Plat.Net
	fmt.Fprintf(&sb, "noc packets=%d bytes=%d dropped=%d corrupted=%d\n",
		n.PacketsSent, n.BytesSent, n.PacketsDropped, n.PacketsCorrupted)
	return sb.String()
}

// tracedRun executes one full workload with the structured tracer and
// the metrics registry armed and returns the engine statistics plus
// hashes of the complete event stream and the metrics snapshot.
func tracedRun(t *testing.T, b workload.Benchmark) (RunStats, uint64, uint64) {
	t.Helper()
	sh := newStreamHash()
	tr := obs.New(obs.Options{Sink: sh.Consume})
	st := mustRun(t, Scenario{Workload: b, M3Options: M3Options{Obs: tr}}).Stats
	return st, sh.Sum64(), snapshotHash(tr)
}

// TestTraceDeterministic is the runtime witness for the invariants
// m3vet enforces statically: two runs of the same mid-size workload
// must execute the identical event schedule — same event count, same
// final time, and the same hashes over every structured event and the
// metrics snapshot. A single unsorted map walk on a kernel path (e.g.
// reverting the sorted iteration in core/caps.go revokeAll) reorders
// the kernel's capability-drop events and makes this fail.
func TestTraceDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	st1, h1, m1 := tracedRun(t, b)
	if st1.ExecutedEvents == 0 {
		t.Fatal("run executed no events")
	}
	for i := 0; i < 2; i++ {
		st2, h2, m2 := tracedRun(t, b)
		if st1 != st2 {
			t.Fatalf("run %d stats differ: %+v vs %+v", i+2, st2, st1)
		}
		if h1 != h2 {
			t.Fatalf("run %d trace hash differs: %#x vs %#x (same stats %+v — an order-only divergence)", i+2, h2, h1, st1)
		}
		if m1 != m2 {
			t.Fatalf("run %d metrics snapshot hash differs: %#x vs %#x", i+2, m2, m1)
		}
	}
}

func TestLxRunDeterministic(t *testing.T) {
	b, err := workload.ByName("untar")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Workload: b, Lx: &LxModel{Profile: linuxos.ProfileXtensa, Cold: true}}
	first, again := mustRun(t, sc), mustRun(t, sc)
	if again.Breakdown() != first.Breakdown() || again.Stats != first.Stats {
		t.Fatalf("runs differ: %v %+v vs %v %+v", again.Breakdown(), again.Stats, first.Breakdown(), first.Stats)
	}
	// The Linux model runs one instance without faults; it refuses the rest.
	for _, bad := range []Scenario{{Workload: b, Lx: sc.Lx, Instances: 2}, {Workload: b, Lx: sc.Lx, Faults: &fault.Plan{}}} {
		if _, err := bad.Run(); err == nil {
			t.Errorf("Linux run with instances %d, faults %v succeeded", bad.Instances, bad.Faults != nil)
		}
	}
}

func TestInstancesDeterministic(t *testing.T) {
	b, err := workload.ByName("find")
	if err != nil {
		t.Fatal(err)
	}
	first, err := meanRunTime(b, 4, Fig6Options())
	if err != nil {
		t.Fatal(err)
	}
	again, err := meanRunTime(b, 4, Fig6Options())
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("instance runs differ: %d vs %d", first, again)
	}
}

func TestSyscallDeterministic(t *testing.T) {
	t1, x1 := NullSyscallM3()
	t2, x2 := NullSyscallM3()
	if t1 != t2 || x1 != x2 {
		t.Fatalf("syscall runs differ: (%d,%d) vs (%d,%d)", t1, x1, t2, x2)
	}
}
