package bench

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/m3fs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Why a verdict of `m3sim diff` misses the layer a change is in
// (docs/OBSERVABILITY.md, "What a diff can attribute").
type missCause int

const (
	hit missCause = iota
	// The kernel charges core.CostDispatch before it emits
	// EvKSyscallStart, so the profiler books it to the caller's waiting
	// frame. (The critical path paints it as waiting on the kernel,
	// which names the kernel.)
	causeDispatchOutside
	// A waiting frame's self time includes the remote server's work:
	// app/syscall and app/svccall swallow kernel and m3fs time.
	causeWaitSelfTime
	// The profiler skips packet flights, so noc is never a layer.
	causeNoFlights
	// Captures carry no run time, and Compute emits no frame.
	causeNoRunTime
	// Blame covers requests (syscalls and service calls) only: the
	// DTU transfers that move a file's data lie outside every request.
	causeRequestsOnly
)

// callHook calls before ahead of every Open and Stat of the wrapped OS.
type callHook struct {
	workload.OS
	before func(workload.OS)
}

func (o callHook) Open(path string, flags workload.OpenFlags) (workload.File, error) {
	o.before(o.OS)
	return o.OS.Open(path, flags)
}

func (o callHook) Stat(path string) (workload.Stat, error) {
	o.before(o.OS)
	return o.OS.Stat(path)
}

// beforeCalls wraps b's run phase so that before runs ahead of every
// Open and Stat; the workload keeps its name, so the captures align.
func beforeCalls(b workload.Benchmark, before func(workload.OS)) workload.Benchmark {
	run := b.Run
	b.Run = func(os workload.OS) error { return run(callHook{os, before}) }
	return b
}

// attributionRow is one real single-layer change, built only from
// inputs the simulator already has, and the verdict the capture diff
// gives on it today. The verdict is the diff's top layer (the layer
// whose profile self-cycles grew most) and top blame (the layer whose
// critical-path cycles, work and waits, grew most); "" means none grew.
type attributionRow struct {
	workload string
	// change is the layer the change is in.
	change        string
	base, changed func(workload.Benchmark) Scenario
	// noDrift pins an empty diff; exercised is false when the change
	// leaves the run time unchanged, so no verdict is owed.
	noDrift   bool
	exercised bool
	layer     string
	layerWhy  missCause
	blame     string
	blameWhy  missCause
}

// names reports whether a verdict names the changed layer. m3fs runs
// as the service layer. The DTU is the memory's only client, and the
// profiler books a DRAM port wait inside the DTU transfer that waits
// for it.
func (r attributionRow) names(verdict string) bool {
	return verdict == r.change || (r.change == "m3fs" && verdict == "service") ||
		(r.change == "dram" && verdict == "dtu")
}

// attributionRows are the battery. The noc and dram rows run four
// instances: one instance neither contends for links nor for ports.
func attributionRows() []attributionRow {
	plain := func(b workload.Benchmark) Scenario { return Scenario{Workload: b} }
	lossless := func(b workload.Benchmark) Scenario {
		return Scenario{Workload: b, Faults: &fault.Plan{Seed: 7}}
	}
	stalls := func(b workload.Benchmark) Scenario {
		return Scenario{Workload: b, Faults: &fault.Plan{Seed: 7, StallRate: 0.2, StallCycles: 200}}
	}
	fleet := func(opt M3Options) func(workload.Benchmark) Scenario {
		return func(b workload.Benchmark) Scenario { return Scenario{Workload: b, Instances: 4, M3Options: opt} }
	}
	ideal := fleet(M3Options{NoCUnlimited: true, DRAMPorts: 4})
	mesh := fleet(M3Options{DRAMPorts: 4})
	onePort := fleet(M3Options{NoCUnlimited: true, DRAMPorts: 1})
	noop := func(b workload.Benchmark) Scenario {
		return Scenario{Workload: beforeCalls(b, func(os workload.OS) {
			if err := os.(*workload.M3OS).Env.Noop(); err != nil {
				panic(err)
			}
		})}
	}
	journal := func(b workload.Benchmark) Scenario {
		return Scenario{Workload: b, M3Options: M3Options{FS: m3fs.Config{Journal: true}}}
	}
	compute := func(b workload.Benchmark) Scenario {
		return Scenario{Workload: beforeCalls(b, func(os workload.OS) { os.Compute(2000) })}
	}
	return []attributionRow{
		{workload: "tar", change: "dtu", base: lossless, changed: stalls, exercised: true,
			layer: "dtu", blame: "dtu"},
		{workload: "find", change: "dtu", base: lossless, changed: stalls, exercised: true,
			layer: "dtu", blame: "dtu"},
		{workload: "tar", change: "noc", base: ideal, changed: mesh, exercised: true,
			layer: "dtu", layerWhy: causeNoFlights, blame: "noc"},
		{workload: "find", change: "noc", base: ideal, changed: mesh, exercised: true,
			layer: "dtu", layerWhy: causeNoFlights, blame: "noc"},
		// The slower transfers lie outside every request; inside them,
		// the four instances' requests only reshuffle their waits: 223
		// more cycles waiting on the kernel, 5,448 fewer on m3fs.
		{workload: "tar", change: "dram", base: ideal, changed: onePort, exercised: true,
			layer: "dtu", blame: "kernel", blameWhy: causeRequestsOnly},
		// find moves 128-byte files: one port serves four instances
		// as fast as four do.
		{workload: "find", change: "dram", base: ideal, changed: onePort, noDrift: true},
		// Dispatch is charged outside the kernel window: the profiler
		// books it to app/syscall. The critical path paints it as
		// waiting on the kernel, and the kernel's work and waits grow.
		{workload: "tar", change: "kernel", base: plain, changed: noop, exercised: true,
			layer: "app", layerWhy: causeDispatchOutside, blame: "kernel"},
		{workload: "find", change: "kernel", base: plain, changed: noop, exercised: true,
			layer: "app", layerWhy: causeDispatchOutside, blame: "kernel"},
		{workload: "tar", change: "m3fs", base: plain, changed: journal, exercised: true,
			layer: "app", layerWhy: causeWaitSelfTime, blame: "service"},
		{workload: "find", change: "m3fs", base: plain, changed: journal, exercised: true,
			layer: "app", layerWhy: causeWaitSelfTime, blame: "service"},
		{workload: "tar", change: "app", base: plain, changed: compute, exercised: true, noDrift: true,
			layerWhy: causeNoRunTime, blameWhy: causeNoRunTime},
		{workload: "find", change: "app", base: plain, changed: compute, exercised: true, noDrift: true,
			layerWhy: causeNoRunTime, blameWhy: causeNoRunTime},
	}
}

// captureRow captures one side of a row and returns the capture and
// the cycle at which its last instance left the run phase.
func captureRow(t *testing.T, sc Scenario) (*obs.RunCapture, sim.Time) {
	t.Helper()
	c, r, err := Capture(sc)
	if err != nil {
		t.Fatal(err)
	}
	var end sim.Time
	for _, o := range r.Outcomes {
		if !o.Finished {
			t.Fatalf("instance %s did not finish: %v", o.Name, o.Err)
		}
		end = max(end, o.EndAt)
	}
	return c, end
}

// TestAttributionBattery pins what `m3sim diff` reports on real
// single-layer changes, hits and misses alike: each row's top layer
// and top blame, or no drift, and for each verdict that does not name
// the changed layer, the cause. Every row's text, JSON and folded
// reports render byte-identically twice. A change to the attribution
// stack that mends a cause moves its rows here.
func TestAttributionBattery(t *testing.T) {
	rows := attributionRows()
	for _, row := range rows {
		t.Run(row.workload+"/"+row.change, func(t *testing.T) {
			b, err := workload.ByName(row.workload)
			if err != nil {
				t.Fatal(err)
			}
			old, oldEnd := captureRow(t, row.base(b))
			new, newEnd := captureRow(t, row.changed(b))
			if row.exercised && newEnd <= oldEnd {
				t.Errorf("changed run ends at %d, base at %d: the change costs nothing", newEnd, oldEnd)
			}
			if !row.exercised && newEnd != oldEnd {
				t.Errorf("row marked not exercised, but the run ends at %d instead of %d", newEnd, oldEnd)
			}
			d, err := obs.DiffCaptures(old, new)
			if err != nil {
				t.Fatal(err)
			}
			if d.Empty() != row.noDrift {
				t.Fatalf("diff empty = %v, pinned %v: %s", d.Empty(), row.noDrift, d.Summary())
			}
			l, _ := d.TopLayer()
			bl, _ := d.TopBlame()
			if l.Layer != row.layer || bl.Layer != row.blame {
				t.Errorf("verdict: top layer %q, top blame %q; pinned %q, %q (%s)",
					l.Layer, bl.Layer, row.layer, row.blame, d.Summary())
			}
			if a, b := renderDiff(t, old, new), renderDiff(t, old, new); a != b {
				t.Error("diff report not byte-deterministic")
			}
			if !row.exercised {
				return
			}
			for _, v := range []struct {
				verdict string
				why     missCause
			}{{row.layer, row.layerWhy}, {row.blame, row.blameWhy}} {
				if row.names(v.verdict) != (v.why == hit) {
					t.Errorf("verdict %q on a %s change is marked with cause %d", v.verdict, row.change, v.why)
				}
			}
		})
	}
	if len(rows) < 11 {
		t.Fatalf("battery has %d rows", len(rows))
	}
}

// renderDiff renders every format of the diff of two captures.
func renderDiff(t *testing.T, old, new *obs.RunCapture) string {
	t.Helper()
	d, err := obs.DiffCaptures(old, new)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFoldedDiff(&buf, old, new); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
