package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Machine-readable bench output: every experiment renders its result
// table into a flat metric list, the whole run is serialized as
// schema-versioned JSON, and `m3bench -diff old.json new.json` compares
// two such files under per-metric tolerances. The JSON is the CI
// regression baseline (BENCH_*.json); see EXPERIMENTS.md for the
// schema and docs/OBSERVABILITY.md for the determinism contract.

// BenchSchema is the JSON schema version. Bump it whenever the field
// layout or metric naming changes incompatibly; -diff refuses to
// compare files of different schema versions.
const BenchSchema = 1

// DefaultTolerance is the fractional regression threshold -diff
// applies to metrics that carry no explicit tolerance: a metric may
// grow by <5% before the diff fails. All bench metrics are
// lower-is-better (cycles, counts); improvements never fail.
const DefaultTolerance = 0.05

// BenchMetric is one scalar measurement.
type BenchMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value,omitempty"`
	// Unit is "cycles", "ratio", ... — or "info" for metrics recorded
	// for the determinism witness only, which -diff reports but never
	// gates on (hashes and event counts change legitimately whenever
	// instrumentation is added).
	Unit string `json:"unit"`
	// Info carries non-numeric witness values (hashes).
	Info string `json:"info,omitempty"`
	// Tol overrides DefaultTolerance for this metric (fraction, e.g.
	// 0.10 allows +10%).
	Tol float64 `json:"tol,omitempty"`
}

// BenchExperiment is the metric set of one experiment.
type BenchExperiment struct {
	Name    string        `json:"name"`
	Metrics []BenchMetric `json:"metrics"`
}

// BenchFile is the serialized bench run. It deliberately carries no
// wall-clock timestamps, host names, or toolchain strings: two runs of
// the same tree produce byte-identical files. Host speed is measured by
// the separate perf/ harness, not here.
type BenchFile struct {
	Schema      int               `json:"schema"`
	Experiments []BenchExperiment `json:"experiments"`
	// Captures are the optional run captures (`m3bench -capture`), one
	// per distinct experiment workload in workload-name order. They are
	// input to regression attribution (diffreport.go, `m3sim diff`) and
	// carry their own schema version; files without captures diff and
	// parse exactly as before.
	Captures []*obs.RunCapture `json:"captures,omitempty"`
}

// WriteJSON renders the file as indented JSON with a trailing newline,
// refusing a file with a duplicate metric key. encoding/json
// serializes struct slices in order, so the output is deterministic.
func (f *BenchFile) WriteJSON(w io.Writer) error {
	if err := f.checkUnique(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadBenchJSON parses a bench file and validates its schema version.
func ReadBenchJSON(data []byte) (*BenchFile, error) {
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parsing JSON: %w", err)
	}
	if f.Schema != BenchSchema {
		return nil, fmt.Errorf("bench: schema %d, this binary speaks %d", f.Schema, BenchSchema)
	}
	if err := f.checkUnique(); err != nil {
		return nil, err
	}
	return &f, nil
}

// checkUnique rejects a file in which two metrics share an
// "exp:metric" key: -diff could compare only one of them.
func (f *BenchFile) checkUnique() error {
	seen := map[string]bool{}
	for _, e := range f.Experiments {
		for _, m := range e.Metrics {
			k := e.Name + ":" + m.Name
			if seen[k] {
				return fmt.Errorf("bench: duplicate metric %s", k)
			}
			seen[k] = true
		}
	}
	return nil
}

// ExperimentFromTables flattens an experiment's tables into metrics:
// every numeric cell outside column 0 becomes one metric named
// "table/rowlabel/column". Column 0 is always the row label, numeric
// or not, so a sweep table keyed by its swept parameter (Figure 4's
// blocks per extent, E-fault's drop rate) names one metric per row;
// the row's other non-numeric cells join the label with "+". Empty
// cells are skipped. The mapping is purely positional, so a new
// experiment gets JSON output for free from its Tables() method.
func ExperimentFromTables(name string, tables []*Table) BenchExperiment {
	exp := BenchExperiment{Name: name}
	for _, t := range tables {
		if len(t.Rows) < 2 {
			continue
		}
		header := t.Rows[0]
		for _, row := range t.Rows[1:] {
			labels := []string{row[0]}
			var metrics []BenchMetric
			for i, cell := range row[1:] {
				col := header[i+1]
				if cell == "" {
					continue
				}
				if v, err := strconv.ParseFloat(cell, 64); err == nil {
					metrics = append(metrics, BenchMetric{Name: col, Value: v, Unit: unitOf(col)})
				} else {
					labels = append(labels, cell)
				}
			}
			prefix := t.Name + "/" + strings.Join(labels, "+") + "/"
			for _, m := range metrics {
				m.Name = prefix + m.Name
				exp.Metrics = append(exp.Metrics, m)
			}
		}
	}
	return exp
}

// unitOf derives the unit from the column name.
func unitOf(col string) string {
	if strings.HasSuffix(col, "_cycles") || col == "cycles" {
		return "cycles"
	}
	return "ratio"
}

// witnessWorkload is the fixed workload the determinism witness runs.
const witnessWorkload = "tar"

// RunWitness executes the determinism witness: one fixed workload with
// the structured tracer and the metrics registry armed. It records the
// engine statistics and content hashes of both streams as "info"
// metrics — byte-identical across runs of the same tree by the
// determinism contract, but never gated on by -diff (they legitimately
// change when instrumentation is added).
func RunWitness() (BenchExperiment, error) {
	exp := BenchExperiment{Name: "witness"}
	b, err := workload.ByName(witnessWorkload)
	if err != nil {
		return exp, err
	}
	sh := newStreamHash()
	tr := obs.New(obs.Options{Sink: sh.Consume})
	r, err := Scenario{Workload: b, M3Options: M3Options{Obs: tr}}.Run()
	if err != nil {
		return exp, err
	}
	exp.Metrics = []BenchMetric{
		{Name: "witness/executed_events", Value: float64(r.Stats.ExecutedEvents), Unit: "info"},
		{Name: "witness/final_time", Value: float64(r.Stats.FinalTime), Unit: "info"},
		{Name: "witness/obs_events", Value: float64(sh.Events), Unit: "info"},
		{Name: "witness/obs_stream_hash", Unit: "info", Info: fmt.Sprintf("%016x", sh.Sum64())},
		{Name: "witness/metrics_snapshot_hash", Unit: "info", Info: fmt.Sprintf("%016x", snapshotHash(tr))},
	}
	return exp, nil
}

// Regression is one gating failure of a bench diff: a metric past its
// tolerance, or a metric that vanished from the new run.
type Regression struct {
	Exp    string  `json:"exp"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old,omitempty"`
	New    float64 `json:"new,omitempty"`
	// Tol is the tolerance the metric was gated under (fraction).
	Tol float64 `json:"tol,omitempty"`
	// Missing marks a metric absent from the new file (a silently
	// vanished experiment must not pass CI).
	Missing bool `json:"missing,omitempty"`
}

// Key is the metric's index key ("exp:metric").
func (r Regression) Key() string { return r.Exp + ":" + r.Metric }

// Delta renders the regression's movement ("123 -> 140 (+13.8%)", or
// "missing from new run").
func (r Regression) Delta() string {
	if r.Missing {
		return "missing from new run"
	}
	return fmt.Sprintf("%g -> %g (%+.1f%%, tol %.0f%%)",
		r.Old, r.New, 100*(r.New/r.Old-1), 100*r.Tol)
}

func (r Regression) String() string { return r.Key() + ": " + r.Delta() }

// BenchDiff is the outcome of comparing two bench files.
type BenchDiff struct {
	// Regressions are the failures: metrics past tolerance, metrics
	// that disappeared, schema trouble.
	Regressions []Regression
	// Notes are non-failing observations: improvements, new metrics,
	// info-metric changes.
	Notes []string
}

// Failed reports whether the diff should gate CI.
func (d *BenchDiff) Failed() bool { return len(d.Regressions) > 0 }

// Headline names the regressed metrics and their deltas in one line,
// capped at max entries (0 = all) — the actionable part of the gate's
// error text.
func (d *BenchDiff) Headline(max int) string {
	var parts []string
	for i, r := range d.Regressions {
		if max > 0 && i == max {
			parts = append(parts, fmt.Sprintf("and %d more", len(d.Regressions)-max))
			break
		}
		parts = append(parts, r.String())
	}
	return strings.Join(parts, "; ")
}

// Write renders the diff report.
func (d *BenchDiff) Write(w io.Writer) error {
	for _, n := range d.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	for _, r := range d.Regressions {
		if _, err := fmt.Fprintf(w, "REGRESSION: %s\n", r); err != nil {
			return err
		}
	}
	if len(d.Regressions) == 0 {
		_, err := fmt.Fprintln(w, "bench diff: no regressions")
		return err
	}
	_, err := fmt.Fprintf(w, "bench diff: %d regression(s)\n", len(d.Regressions))
	return err
}

// metricRef locates one metric inside a file.
type metricRef struct {
	exp string
	m   BenchMetric
}

func indexMetrics(f *BenchFile) (map[string]metricRef, []string) {
	idx := make(map[string]metricRef)
	var keys []string
	for _, e := range f.Experiments {
		for _, m := range e.Metrics {
			k := e.Name + ":" + m.Name
			if _, dup := idx[k]; !dup {
				keys = append(keys, k)
			}
			idx[k] = metricRef{exp: e.Name, m: m}
		}
	}
	return idx, keys
}

// DiffBench compares a new bench run against an old baseline. Every
// numeric metric is lower-is-better: the diff fails when
// new > old*(1+tol), with tol the baseline metric's Tol (or
// DefaultTolerance). Info metrics and improvements only produce notes;
// metrics missing from the new file fail (a silently vanished
// experiment must not pass CI); metrics only in the new file are
// notes (the next committed baseline adopts them).
func DiffBench(old, new *BenchFile) *BenchDiff {
	d := &BenchDiff{}
	oldIdx, oldKeys := indexMetrics(old)
	newIdx, newKeys := indexMetrics(new)
	for _, k := range oldKeys {
		o := oldIdx[k]
		n, ok := newIdx[k]
		if !ok {
			d.Regressions = append(d.Regressions, Regression{
				Exp: o.exp, Metric: o.m.Name, Old: o.m.Value, Missing: true})
			continue
		}
		if o.m.Unit == "info" || n.m.Unit == "info" {
			if o.m.Info != n.m.Info || o.m.Value != n.m.Value {
				d.Notes = append(d.Notes, fmt.Sprintf("%s: witness changed (%s%v -> %s%v)",
					k, o.m.Info, o.m.Value, n.m.Info, n.m.Value))
			}
			continue
		}
		tol := o.m.Tol
		if tol == 0 {
			tol = DefaultTolerance
		}
		switch {
		case o.m.Value == 0:
			if n.m.Value != 0 {
				d.Notes = append(d.Notes, fmt.Sprintf("%s: 0 -> %g (zero baseline, not gated)", k, n.m.Value))
			}
		case n.m.Value > o.m.Value*(1+tol):
			d.Regressions = append(d.Regressions, Regression{
				Exp: o.exp, Metric: o.m.Name, Old: o.m.Value, New: n.m.Value, Tol: tol})
		case n.m.Value < o.m.Value*(1-tol):
			d.Notes = append(d.Notes, fmt.Sprintf("%s: %g -> %g (%+.1f%%, improvement)",
				k, o.m.Value, n.m.Value, 100*(n.m.Value/o.m.Value-1)))
		}
	}
	var added []string
	for _, k := range newKeys {
		if _, ok := oldIdx[k]; !ok {
			added = append(added, k)
		}
	}
	sort.Strings(added)
	for _, k := range added {
		d.Notes = append(d.Notes, fmt.Sprintf("%s: new metric, absent from baseline", k))
	}
	return d
}
