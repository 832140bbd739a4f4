package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Tests for the machine-readable bench output: JSON byte-determinism
// (the acceptance witness), the metrics snapshot, the regression
// gate's pass/fail behaviour, and the metrics' zero-overhead contract.

// witnessJSON runs the determinism witness and serializes it.
func witnessJSON(t *testing.T) []byte {
	t.Helper()
	exp, err := RunWitness()
	if err != nil {
		t.Fatal(err)
	}
	f := &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{exp}}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchJSONDeterministic: three witness runs must serialize to
// byte-identical JSON — no map ordering, no nondeterministic hashes,
// and no wall-clock fields.
func TestBenchJSONDeterministic(t *testing.T) {
	first := witnessJSON(t)
	if len(first) == 0 || !bytes.Contains(first, []byte(`"schema": 1`)) {
		t.Fatalf("unexpected witness JSON:\n%s", first)
	}
	for i := 0; i < 2; i++ {
		if next := witnessJSON(t); !bytes.Equal(first, next) {
			t.Fatalf("witness run %d serialized differently:\n%s\nvs\n%s", i+2, next, first)
		}
	}
}

// TestMetricsSnapshotDeterministic: the registry snapshot — the unit
// the witness hashes — is byte-identical across runs of one workload.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	snap := func() string {
		tr := obs.New(obs.Options{})
		mustRun(t, Scenario{Workload: b, M3Options: M3Options{Obs: tr}})
		return tr.Metrics().Snapshot()
	}
	s1 := snap()
	if !strings.Contains(s1, "counter kernel_syscalls_total ") ||
		!strings.Contains(s1, "counter noc_link_busy_cycles_total[") {
		t.Fatalf("snapshot missing expected metrics:\n%s", s1)
	}
	for i := 0; i < 2; i++ {
		if s2 := snap(); s2 != s1 {
			t.Fatalf("snapshot %d differs:\n%s\nvs\n%s", i+2, s2, s1)
		}
	}
}

// TestSamplerOffBitIdentical: the registry is never sampled, so a run
// with the full metrics instrumentation registered must execute the
// exact event schedule of a run with no tracer at all — same engine
// statistics, breakdown, and per-PE DTU, kernel and NoC counters.
func TestSamplerOffBitIdentical(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprint(mustRun(t, Scenario{Workload: b}))
	if got := fingerprint(mustRun(t, Scenario{Workload: b, M3Options: M3Options{Obs: obs.New(obs.Options{})}})); got != base {
		t.Fatalf("metrics instrumentation changed the run:\n%s\nvs baseline\n%s", got, base)
	}
}

func sampleFile() *BenchFile {
	return &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{{
		Name: "fig5",
		Metrics: []BenchMetric{
			{Name: "fig5/tar+M3/total_cycles", Value: 1000, Unit: "cycles"},
			{Name: "fig5/tar+M3/os_cycles", Value: 200, Unit: "cycles"},
		},
	}, {
		Name: "witness",
		Metrics: []BenchMetric{
			{Name: "witness/obs_stream_hash", Unit: "info", Info: "aaaa"},
		},
	}}}
}

// TestDiffSelfTest is the -diff acceptance check: an unmodified
// baseline passes, an injected >=10% cycle regression fails.
func TestDiffSelfTest(t *testing.T) {
	old := sampleFile()
	if d := DiffBench(old, sampleFile()); d.Failed() {
		t.Fatalf("identical files diffed as regression: %v", d.Regressions)
	}
	reg := sampleFile()
	reg.Experiments[0].Metrics[0].Value = 1100 // +10% > 5% tolerance
	d := DiffBench(old, reg)
	if !d.Failed() {
		t.Fatal("10% cycle regression passed the 5% gate")
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0].String(), "total_cycles") {
		t.Fatalf("unexpected regressions: %v", d.Regressions)
	}
	r := d.Regressions[0]
	if r.Exp != "fig5" || r.Old != 1000 || r.New != 1100 || r.Missing {
		t.Fatalf("regression fields: %+v", r)
	}
	// Headline names the metric and delta — the actionable error text.
	if h := d.Headline(0); !strings.Contains(h, "total_cycles") || !strings.Contains(h, "+10.0%") {
		t.Fatalf("headline = %q", h)
	}
}

// TestDiffTolerancesAndDirections: per-metric tolerance overrides,
// improvements pass with a note, info metrics never gate, missing
// metrics fail, new metrics are notes.
func TestDiffTolerancesAndDirections(t *testing.T) {
	old := sampleFile()
	old.Experiments[0].Metrics[0].Tol = 0.20

	within := sampleFile()
	within.Experiments[0].Metrics[0].Value = 1150 // +15% < 20% override
	if d := DiffBench(old, within); d.Failed() {
		t.Fatalf("regression within per-metric tolerance failed: %v", d.Regressions)
	}

	improved := sampleFile()
	improved.Experiments[0].Metrics[0].Value = 500
	d := DiffBench(old, improved)
	if d.Failed() {
		t.Fatalf("improvement failed the gate: %v", d.Regressions)
	}
	if len(d.Notes) == 0 || !strings.Contains(d.Notes[0], "improvement") {
		t.Fatalf("improvement not noted: %v", d.Notes)
	}

	infoChanged := sampleFile()
	infoChanged.Experiments[1].Metrics[0].Info = "bbbb"
	if d := DiffBench(sampleFile(), infoChanged); d.Failed() {
		t.Fatalf("info metric change failed the gate: %v", d.Regressions)
	}

	missing := sampleFile()
	missing.Experiments[0].Metrics = missing.Experiments[0].Metrics[:1]
	if d := DiffBench(sampleFile(), missing); !d.Failed() {
		t.Fatal("vanished metric passed the gate")
	}

	extra := sampleFile()
	extra.Experiments[0].Metrics = append(extra.Experiments[0].Metrics,
		BenchMetric{Name: "fig5/tar+M3/new_cycles", Value: 1, Unit: "cycles"})
	d = DiffBench(sampleFile(), extra)
	if d.Failed() {
		t.Fatalf("new metric failed the gate: %v", d.Regressions)
	}
	if len(d.Notes) == 0 || !strings.Contains(d.Notes[len(d.Notes)-1], "new metric") {
		t.Fatalf("new metric not noted: %v", d.Notes)
	}
}

// TestDiffCatchesSweepRowRegression: Figure 4's rows are keyed by
// their blocks-per-extent value, so a regression in a row other than
// the last one fails the gate.
func TestDiffCatchesSweepRowRegression(t *testing.T) {
	fig4 := func(read16 sim.Time) *BenchFile {
		r := &Fig4Result{
			BlocksPerExtent: []int{16, 32, 64},
			ReadCycles:      []sim.Time{read16, 470, 420},
			WriteCycles:     []sim.Time{630, 500, 430},
		}
		return &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{ExperimentFromTables("fig4", r.Tables())}}
	}
	d := DiffBench(fig4(580), fig4(700))
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "fig4/16/read_cycles" {
		t.Fatalf("regressions = %v, want fig4/16/read_cycles", d.Regressions)
	}
}

// TestDuplicateMetricRejected: a file in which two metrics share an
// "exp:metric" key is neither written nor read.
func TestDuplicateMetricRejected(t *testing.T) {
	f := sampleFile()
	f.Experiments[0].Metrics[1].Name = f.Experiments[0].Metrics[0].Name
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err == nil || !strings.Contains(err.Error(), "duplicate metric fig5:fig5/tar+M3/total_cycles") {
		t.Fatalf("WriteJSON of a duplicate key: err = %v", err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchJSON(data); err == nil {
		t.Fatal("file with a duplicate metric key parsed without error")
	}
}

// TestReadBenchJSONSchemaGate: -diff refuses files of another schema.
func TestReadBenchJSONSchemaGate(t *testing.T) {
	var buf bytes.Buffer
	f := sampleFile()
	f.Schema = BenchSchema + 1
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchJSON(buf.Bytes()); err == nil {
		t.Fatal("wrong-schema file parsed without error")
	}
	buf.Reset()
	if err := sampleFile().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 2 || got.Experiments[0].Metrics[0].Value != 1000 {
		t.Fatalf("roundtrip mangled the file: %+v", got)
	}
}

// TestExperimentFromTables: the generic table-to-metrics flattening.
// Column 0 is the row label even when it is numeric.
func TestExperimentFromTables(t *testing.T) {
	tbl := &Table{Name: "demo", Rows: [][]string{
		{"op", "system", "total_cycles", "ratio"},
		{"read", "m3", "123", "0.5"},
		{"write", "m3", "456", ""},
	}}
	sweep := &Table{Name: "sweep", Rows: [][]string{
		{"rate", "run_cycles"},
		{"0.5", "7"},
	}}
	exp := ExperimentFromTables("demo", []*Table{tbl, sweep})
	want := []BenchMetric{
		{Name: "demo/read+m3/total_cycles", Value: 123, Unit: "cycles"},
		{Name: "demo/read+m3/ratio", Value: 0.5, Unit: "ratio"},
		{Name: "demo/write+m3/total_cycles", Value: 456, Unit: "cycles"},
		{Name: "sweep/0.5/run_cycles", Value: 7, Unit: "cycles"},
	}
	if len(exp.Metrics) != len(want) {
		t.Fatalf("metrics = %+v, want %+v", exp.Metrics, want)
	}
	for i, m := range exp.Metrics {
		if m != want[i] {
			t.Fatalf("metric %d = %+v, want %+v", i, m, want[i])
		}
	}
}

// TestUtilizationSeries: the utilization experiment derives busy
// fractions from each DTU's idle-cycle counter, one row per PE in PE id
// order.
func TestUtilizationSeries(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunUtilization(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed == 0 || len(r.PEs) == 0 {
		t.Fatalf("no utilization measured: %+v", r)
	}
	for i, u := range r.PEs {
		if u.PE != i {
			t.Fatalf("row %d is pe%d; want PE id order: %+v", i, u.PE, r.PEs)
		}
		if u.Busy < 0 || u.Busy > 1 {
			t.Fatalf("pe%d busy fraction out of range: %v", u.PE, u.Busy)
		}
	}
	if r.Mean <= 0 || r.Mean > 1 {
		t.Fatalf("mean utilization out of range: %v", r.Mean)
	}
}
