package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The experiment registry is the one list of experiments: m3bench
// reads it for -e, the text report, -csv and -json; CaptureAll and
// Attribute read each experiment's capture workload from it.

// Experiment is one entry of the registry.
type Experiment struct {
	Name string
	Desc string
	// Smoke marks the experiment as part of the fast CI subset
	// (`m3bench -e smoke`, the BENCH_8.json baseline).
	Smoke bool
	// Capture is the workload `m3bench -capture` runs for the
	// experiment's regression attribution. Several experiments share
	// one; each distinct workload is captured once.
	Capture string
	// Exactly one of tables and metrics is set. tables runs a
	// table-shaped experiment, whose metrics are its numeric cells
	// (ExperimentFromTables). metrics runs an experiment whose metrics
	// are built by hand, because they carry a per-metric tolerance or
	// info values no table cell does (util, witness).
	tables  func() ([]*Table, error)
	metrics func() (BenchExperiment, error)
}

// Report is one experiment's output: the tables m3bench prints and
// writes as CSV, and the experiment's entry of the bench JSON.
type Report struct {
	Tables  []*Table
	Metrics BenchExperiment
}

// Experiments is the registry. Order is execution and JSON order.
var Experiments = []Experiment{
	{Name: "fig3", Desc: "syscall + file-op microbenchmarks vs Linux", Smoke: true, Capture: "tar", tables: tablesOf(Fig3)},
	{Name: "sec52", Desc: "§5.2 OS-primitive cost table (Xtensa vs ARM)", Capture: "tar", tables: tablesOf(Sec52)},
	{Name: "fig4", Desc: "extent-size sweep of read/write throughput", Capture: "tar", tables: tablesOf(Fig4)},
	{Name: "fig5", Desc: "application benchmarks vs Linux", Capture: "tar", tables: tablesOf(Fig5)},
	{Name: "fig6", Desc: "parallel instance scaling", Capture: "tar", tables: tablesOf(Fig6)},
	{Name: "fig7", Desc: "FFT accelerator offload", Capture: "tar", tables: tablesOf(Fig7)},
	{Name: "util", Desc: "§3.4 per-PE utilization trade-off", Smoke: true, Capture: "find", metrics: utilMetrics},
	{Name: "efault", Desc: "completion time under packet loss", Capture: "tar", tables: tablesOf(EFault)},
	{Name: "erecover", Desc: "m3fs crash/restart availability sweep", Capture: "tar", tables: tablesOf(ERecover)},
	{Name: "elat", Desc: "latency percentile tables", Smoke: true, Capture: "tar", tables: tablesOf(ELat)},
	{Name: "eload", Desc: "graceful degradation under open-loop overload", Smoke: true, Capture: "tar", tables: tablesOf(ELoad)},
	{Name: "etail", Desc: "critical-path blame at p50/p99 vs Linux", Smoke: true, Capture: "tar", tables: tablesOf(ETail)},
	{Name: "witness", Desc: "determinism witness: run stats + stream hashes", Smoke: true, Capture: witnessWorkload, metrics: RunWitness},
}

// tablesOf adapts a result constructor to the registry's tables field.
func tablesOf[R interface{ Tables() []*Table }](run func() (R, error)) func() ([]*Table, error) {
	return func() ([]*Table, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// Run executes the experiment.
func (e Experiment) Run() (Report, error) {
	if e.metrics != nil {
		m, err := e.metrics()
		return Report{Metrics: m}, err
	}
	ts, err := e.tables()
	if err != nil {
		return Report{}, err
	}
	return Report{Tables: ts, Metrics: ExperimentFromTables(e.Name, ts)}, nil
}

// WriteText writes the report as text: every table under its title,
// or, for an experiment without tables, one "name = value" line per
// metric.
func (r Report) WriteText(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	if len(r.Tables) > 0 {
		return nil
	}
	for _, m := range r.Metrics.Metrics {
		v := m.Info
		if v == "" {
			v = strconv.FormatFloat(m.Value, 'f', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "  %s = %s\n", m.Name, v); err != nil {
			return err
		}
	}
	return nil
}

// ExperimentNames lists the registry's names in order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// SelectExperiments resolves an experiment list: "all", "smoke" (the
// Smoke subset), or comma-separated names. The result is in registry
// order.
func SelectExperiments(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	if spec != "all" && spec != "smoke" {
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			if _, ok := lookupExperiment(name); !ok {
				return nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(ExperimentNames(), ","))
			}
			want[name] = true
		}
	}
	var out []Experiment
	for _, e := range Experiments {
		if spec == "all" || spec == "smoke" && e.Smoke || want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

func lookupExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// captureOf is the capture workload of the named experiment, or "" for
// a name the registry does not know.
func captureOf(exp string) string {
	e, _ := lookupExperiment(exp)
	return e.Capture
}
