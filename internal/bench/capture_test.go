package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// captureJSON renders a capture to a string.
func captureJSON(t *testing.T, c *obs.RunCapture) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCaptureDeterministic is the determinism contract for captures:
// two captures of the same run must be byte-identical JSON — so an
// `m3sim diff` report is never run noise.
func TestCaptureDeterministic(t *testing.T) {
	var js [2]string
	for i := range js {
		c, err := RunWorkloadCapture(witnessWorkload, M3Options{})
		if err != nil {
			t.Fatal(err)
		}
		js[i] = captureJSON(t, c)
	}
	if js[0] != js[1] {
		t.Fatal("two captures of the same run differ")
	}
	if !strings.Contains(js[0], "\"workload\": \""+witnessWorkload+"\"") {
		t.Fatalf("capture JSON malformed:\n%.400s", js[0])
	}
}

// TestCapturePerturbationAttribution seeds a +10% kernel dispatch-cost
// regression and requires the capture diff to attribute it to the
// kernel: top blame-drift category "kernel" and a growing kernel
// profile layer. This is the in-process twin of `make diff-smoke`.
func TestCapturePerturbationAttribution(t *testing.T) {
	base, err := RunWorkloadCapture(witnessWorkload, M3Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := sim.Time(core.CostDispatch) / 10
	perturbed, err := RunWorkloadCapture(witnessWorkload, M3Options{DispatchCostDelta: delta})
	if err != nil {
		t.Fatal(err)
	}
	d, err := obs.DiffCaptures(base, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatalf("+%d cycles/syscall produced an empty diff", delta)
	}
	blame, ok := d.TopBlame()
	if !ok || blame.Category != "kernel" {
		t.Fatalf("top blame = %+v (ok=%v), want kernel", blame, ok)
	}
	kernelGrew := false
	for _, l := range d.Layers {
		if l.Layer == "kernel" && l.Delta() > 0 {
			kernelGrew = true
		}
	}
	if !kernelGrew {
		t.Fatalf("kernel profile layer did not grow: %+v", d.Layers)
	}

	// The report renders byte-identically across repeated diffs.
	render := func() string {
		d2, err := obs.DiffCaptures(base, perturbed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d2.WriteText(&buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := d2.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteFoldedDiff(&buf, base, perturbed); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("diff report not byte-deterministic")
	}
}

// TestCaptureSinksZeroOverhead: arming the capture sinks (profiler +
// critical path) must not change the simulation — they are pure
// consumers of the event stream. A run with the sinks fanned out and a
// run with a null sink execute the identical event schedule.
func TestCaptureSinksZeroOverhead(t *testing.T) {
	b, err := workload.ByName(witnessWorkload)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sink func(obs.Event)) RunStats {
		tr := obs.New(obs.Options{Sink: sink})
		return mustRun(t, Scenario{Workload: b, M3Options: M3Options{Obs: tr, SampleEvery: witnessSampleEvery}}).Stats
	}
	null := run(func(obs.Event) {})
	prof := obs.NewProfiler()
	cp := obs.NewCritPath(obs.CritPathOptions{})
	armed := run(func(ev obs.Event) {
		prof.Consume(ev)
		cp.Consume(ev)
	})
	if null != armed {
		t.Fatalf("capture sinks perturbed the run: %+v vs %+v", armed, null)
	}

	// And a zero cost delta is exactly no perturbation.
	plain := mustRun(t, Scenario{Workload: b}).Breakdown()
	zeroDelta := mustRun(t, Scenario{Workload: b, M3Options: M3Options{DispatchCostDelta: 0}}).Breakdown()
	if plain != zeroDelta {
		t.Fatalf("zero DispatchCostDelta perturbed the run: %+v vs %+v", zeroDelta, plain)
	}
}

// TestBenchFileCapturesRoundTrip: captures ride in the bench JSON and
// survive a write/read cycle byte-identically; files without captures
// stay valid.
func TestBenchFileCapturesRoundTrip(t *testing.T) {
	c, err := RunWorkloadCapture(witnessWorkload, M3Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := sampleFile()
	f.Captures = []*obs.RunCapture{c}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Captures) != 1 || got.Captures[0].Workload != witnessWorkload {
		t.Fatalf("captures lost in round trip: %+v", got.Captures)
	}
	if FindCapture(got, witnessWorkload) == nil {
		t.Fatal("FindCapture missed the round-tripped capture")
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("bench JSON with captures not byte-stable across a round trip")
	}
}

// TestAttributeReport drives the red-gate pipeline end to end on
// synthetic bench files: a regressed metric must come back attributed
// to its workload's capture diff, and files without captures must
// degrade to a named missing-capture note instead of failing.
func TestAttributeReport(t *testing.T) {
	base, err := RunWorkloadCapture(witnessWorkload, M3Options{})
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := RunWorkloadCapture(witnessWorkload,
		M3Options{DispatchCostDelta: sim.Time(core.CostDispatch) / 10})
	if err != nil {
		t.Fatal(err)
	}

	old := sampleFile() // fig5 + witness experiments
	old.Captures = []*obs.RunCapture{base}
	reg := sampleFile()
	reg.Experiments[0].Metrics[0].Value = 1100 // fig5: +10% past the 5% gate
	reg.Captures = []*obs.RunCapture{perturbed}

	d := DiffBench(old, reg)
	if !d.Failed() {
		t.Fatal("seeded regression passed the gate")
	}
	rep, err := Attribute(d, old, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attributions) != 1 || rep.Attributions[0].Workload != witnessWorkload {
		t.Fatalf("attributions = %+v", rep.Attributions)
	}
	a := rep.Attributions[0]
	if len(a.Metrics) != 1 || a.Metrics[0] != "fig5:fig5/tar+M3/total_cycles" {
		t.Fatalf("attributed metrics = %v", a.Metrics)
	}
	if top, ok := a.Diff.TopBlame(); !ok || top.Category != "kernel" {
		t.Fatalf("attribution blame = %+v ok=%v", top, ok)
	}

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig5:fig5/tar+M3/total_cycles", "workload " + witnessWorkload, "blame drift"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("attribution text missing %q:\n%s", want, text.String())
		}
	}
	var js1, js2 bytes.Buffer
	if err := rep.WriteJSON(&js1); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if js1.String() != js2.String() {
		t.Fatal("diff-report JSON not byte-stable")
	}

	// No captures on one side: regression still reported, workload named
	// as missing.
	bare := sampleFile()
	bare.Experiments[0].Metrics[0].Value = 1100
	d2 := DiffBench(old, bare)
	rep2, err := Attribute(d2, old, bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Attributions) != 0 {
		t.Fatalf("attributions without captures: %+v", rep2.Attributions)
	}
	if len(rep2.MissingCaptures) != 1 || rep2.MissingCaptures[0] != witnessWorkload {
		t.Fatalf("missing captures = %v", rep2.MissingCaptures)
	}
	var text2 bytes.Buffer
	if err := rep2.WriteText(&text2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text2.String(), "no capture of workload "+witnessWorkload) {
		t.Fatalf("missing-capture text:\n%s", text2.String())
	}
}
