package bench

import (
	"encoding/csv"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestExperimentRegistry: names are unique, each entry has one runner,
// the smoke subset is exactly the committed baseline's experiment list,
// and every capture workload resolves.
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("experiment %s registered twice", e.Name)
		}
		seen[e.Name] = true
		if (e.tables == nil) == (e.metrics == nil) {
			t.Errorf("experiment %s: want exactly one of tables and metrics", e.Name)
		}
		if _, err := workload.ByName(e.Capture); err != nil {
			t.Errorf("experiment %s: capture workload: %v", e.Name, err)
		}
	}
	data, err := os.ReadFile("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadBenchJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, e := range base.Experiments {
		want = append(want, e.Name)
	}
	smoke, err := SelectExperiments("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range smoke {
		got = append(got, e.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("smoke set = %v, BENCH_8.json has %v", got, want)
	}
	if sel, err := SelectExperiments("efault, fig4"); err != nil || len(sel) != 2 || sel[0].Name != "fig4" {
		t.Fatalf("SelectExperiments(efault, fig4) = %v, %v; want fig4, efault in registry order", sel, err)
	}
	if _, err := SelectExperiments("fig9"); err == nil {
		t.Fatal("unknown experiment selected without error")
	}
}

// TestTablesRenderAlike renders every table-shaped result as text, CSV
// and bench-JSON metrics, and checks that the three carry the same
// labels and values under a title. Figure 3 runs for real; the others
// are built by hand.
func TestTablesRenderAlike(t *testing.T) {
	f3, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	hists := func(vals ...uint64) *opHists {
		o := newOpHists()
		for i := range o.hs {
			for _, v := range vals {
				o.hs[i].Observe(v + uint64(i))
			}
		}
		return o
	}
	dtuHist := &obs.Histogram{Name: "syscall_rtt"}
	dtuHist.Observe(555)
	apps := map[string]map[string]Breakdown{}
	for _, name := range []string{"cat+tr", "tar", "untar", "find", "sqlite"} {
		apps[name] = map[string]Breakdown{"M3": {Total: 1, App: 1}, "Lx-$": {Total: 2}, "Lx": {Total: 3, OS: 3}}
	}
	q := func(q float64, lat uint64) ETailQ {
		var b obs.BlameVec
		b[obs.PaintOf(obs.LKernel, false)] = uint32(lat)
		return ETailQ{Q: q, Latency: lat, Blame: b}
	}
	point := &ELoadPoint{Offered: 512, Admitted: 500, Shed: 12, GoodputMcyc: 700, MeanRTT: 1000, P99RTT: 2000, MeanShedLat: 80}
	results := []interface{ Tables() []*Table }{
		f3,
		&Sec52Result{Rows: []Sec52Row{{Metric: "null syscall (cycles)", Xtensa: 1, ARM: 2}}},
		&Fig4Result{BlocksPerExtent: []int{16, 32}, ReadCycles: []sim.Time{100, 90}, WriteCycles: []sim.Time{110, 95}},
		&Fig5Result{Apps: apps},
		&Fig6Result{Instances: []int{1, 2}, Normalized: map[string][]float64{
			"cat+tr": {0, 1}, "tar": {1, 1.1}, "untar": {1, 1.2}, "find": {1, 2}, "sqlite": {1, 1},
		}},
		&Fig7Result{Linux: Breakdown{Total: 3}, M3Soft: Breakdown{Total: 2}, M3Accel: Breakdown{Total: 1}},
		&ELatResult{M3: hists(700, 1500), Lx: hists(400), DTU: []*obs.Histogram{dtuHist}},
		&ETailResult{Workloads: []ETailWorkloadResult{{
			Workload: "stat",
			M3:       ETailSystem{System: "m3", Requests: 192, Quantiles: []ETailQ{q(0.5, 2035), q(0.99, 2686)}},
			Lx:       ETailSystem{System: "lx", Requests: 192, Quantiles: []ETailQ{q(0.5, 620), q(0.99, 620)}},
			SLOGood:  192, SLOTotal: 192, SLOState: "healthy",
		}}},
		&ELoadResult{Capacity: &ELoadPoint{GoodputMcyc: 1449.5, MeanRTT: 5478, P99RTT: 6000},
			Rows: []ELoadRow{{Label: "x1", Mult: 1, Point: point}}},
		&EFaultResult{Workload: "untar", Rows: []EFaultRow{
			{DropRate: 0, RunTime: 480748, Slowdown: 1}, {DropRate: 0.005, RunTime: 491300, Slowdown: 1.022, Retransmits: 2, Dropped: 20},
		}},
		&ERecoverResult{Workload: "untar", Rows: []ERecoverRow{
			{Crashes: 0, RunTime: 484776, Goodput: 1}, {Crashes: 1, RunTime: 506236, Goodput: 0.958, Restarts: 1, MeanRecover: 14103, Replayed: 37},
		}},
	}
	names := map[string]bool{}
	for _, r := range results {
		for _, tb := range r.Tables() {
			if names[tb.Name] {
				t.Errorf("table name %s used twice", tb.Name)
			}
			names[tb.Name] = true
			checkRendering(t, tb)
		}
	}
}

// checkRendering checks one table's text, CSV and metrics against its
// cells.
func checkRendering(t *testing.T, tb *Table) {
	t.Helper()
	var text, csvText strings.Builder
	if err := tb.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteCSV(&csvText); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text.String(), "\n")
	if tb.Title == "" || lines[0] != tb.Title {
		t.Errorf("%s: text starts %q, want the title %q", tb.Name, lines[0], tb.Title)
	}
	// Title, header, rule, data rows, then a blank line.
	if len(lines) != len(tb.Rows)+4 {
		t.Fatalf("%s: %d text lines for %d rows:\n%s", tb.Name, len(lines), len(tb.Rows), text.String())
	}
	for i, row := range tb.Rows {
		line := lines[1+i]
		if i > 0 {
			line = lines[2+i]
		}
		rest := line
		for _, cell := range row {
			at := strings.Index(rest, cell)
			if at < 0 || strings.TrimSpace(rest[:at]) != "" {
				t.Fatalf("%s: text line %q lacks cell %q in place", tb.Name, line, cell)
			}
			rest = rest[at+len(cell):]
		}
	}
	rd := csv.NewReader(strings.NewReader(csvText.String()))
	rd.FieldsPerRecord = -1
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("%s: CSV does not parse: %v", tb.Name, err)
	}
	if !reflect.DeepEqual(recs, tb.Rows) {
		t.Fatalf("%s: CSV rows %q, want %q", tb.Name, recs, tb.Rows)
	}
	// Every numeric cell outside column 0 is one metric, in row and
	// column order, named by the table, the row label and the column.
	metrics := ExperimentFromTables("x", []*Table{tb}).Metrics
	k := 0
	header := tb.Rows[0]
	for _, row := range tb.Rows[1:] {
		for col := 1; col < len(row); col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				continue
			}
			if k == len(metrics) {
				t.Fatalf("%s: no metric for cell %q of row %q", tb.Name, row[col], row)
			}
			m := metrics[k]
			k++
			if !strings.HasPrefix(m.Name, tb.Name+"/"+row[0]) || !strings.HasSuffix(m.Name, "/"+header[col]) || m.Value != v {
				t.Fatalf("%s: metric %s = %g for cell %q of row %q", tb.Name, m.Name, m.Value, row[col], row)
			}
		}
	}
	if k != len(metrics) {
		t.Fatalf("%s: %d metrics for %d numeric cells", tb.Name, len(metrics), k)
	}
	f := &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{{Name: "x", Metrics: metrics}}}
	if err := f.checkUnique(); err != nil {
		t.Fatalf("%s: %v", tb.Name, err)
	}
}
