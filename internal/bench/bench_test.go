package bench

import (
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/linuxos"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestNullSyscallMatchesPaper(t *testing.T) {
	total, xfer := NullSyscallM3()
	// The paper: ~200 cycles total, ~30 of message transfers (§5.3);
	// our app PE sits one hop from the kernel, so the wire share is
	// smaller but must be positive and minor.
	if total < 150 || total > 260 {
		t.Fatalf("M3 null syscall = %d cycles, want ~200", total)
	}
	if xfer == 0 || xfer > total/2 {
		t.Fatalf("xfer share = %d of %d", xfer, total)
	}
	if lx := NullSyscallLx(linuxos.ProfileXtensa); lx != 410 {
		t.Fatalf("Lx syscall = %d, want 410", lx)
	}
	if lx := NullSyscallLx(linuxos.ProfileARM); lx != 320 {
		t.Fatalf("ARM syscall = %d, want 320", lx)
	}
}

func TestFig3ReadShape(t *testing.T) {
	m3bd := mustRun(t, Scenario{Workload: ReadBench()}).Breakdown()
	warm := mustRun(t, Scenario{Workload: ReadBench(), Lx: &LxModel{Profile: linuxos.ProfileXtensa}}).Breakdown()
	cold := mustRun(t, Scenario{Workload: ReadBench(), Lx: &LxModel{Profile: linuxos.ProfileXtensa, Cold: true}}).Breakdown()
	// Paper's Figure 3 ordering: M3 << Lx-$ < Lx.
	if !(m3bd.Total < warm.Total && warm.Total < cold.Total) {
		t.Fatalf("ordering broken: m3=%d warm=%d cold=%d", m3bd.Total, warm.Total, cold.Total)
	}
	// M3 wins by a large factor (the paper's bars show ~an order of
	// magnitude).
	if ratio := float64(cold.Total) / float64(m3bd.Total); ratio < 5 {
		t.Fatalf("Lx/M3 read ratio = %.1f, want > 5", ratio)
	}
	// The M3 transfer itself approaches 8 B/cycle: 2 MiB in ~262K
	// cycles plus protocol overhead.
	if m3bd.Total < 262144 {
		t.Fatalf("M3 read faster than the DTU bandwidth allows: %d", m3bd.Total)
	}
	if m3bd.Total > 600000 {
		t.Fatalf("M3 read = %d cycles, too much overhead", m3bd.Total)
	}
}

func TestFig3WriteZeroFillAsymmetry(t *testing.T) {
	read := mustRun(t, Scenario{Workload: ReadBench(), Lx: &LxModel{Profile: linuxos.ProfileXtensa}}).Breakdown()
	write := mustRun(t, Scenario{Workload: WriteBench(), Lx: &LxModel{Profile: linuxos.ProfileXtensa}}).Breakdown()
	// Linux overwrites each block with zeros before handing it out
	// (§5.4): writing must cost more than reading.
	if write.Total <= read.Total {
		t.Fatalf("write (%d) should exceed read (%d) on Linux", write.Total, read.Total)
	}
}

func TestFig4SweetSpot(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BlocksPerExtent) != 8 || r.BlocksPerExtent[0] != 16 || r.BlocksPerExtent[7] != 2048 {
		t.Fatalf("sweep = %v", r.BlocksPerExtent)
	}
	// Monotonically non-increasing read times.
	for i := 1; i < len(r.ReadCycles); i++ {
		if r.ReadCycles[i] > r.ReadCycles[i-1] {
			t.Fatalf("read time increased at %d blocks/extent", r.BlocksPerExtent[i])
		}
	}
	// The paper's sweet spot: beyond 256 blocks the gain is marginal
	// (<5%), while 16 blocks is substantially slower.
	i256 := 4
	gainAfter := float64(r.ReadCycles[i256]-r.ReadCycles[7]) / float64(r.ReadCycles[i256])
	if gainAfter > 0.05 {
		t.Fatalf("gain beyond 256 blocks = %.1f%%, want < 5%%", gainAfter*100)
	}
	penalty := float64(r.ReadCycles[0]) / float64(r.ReadCycles[7])
	if penalty < 1.2 {
		t.Fatalf("fragmentation penalty at 16 blocks = %.2fx, want > 1.2x", penalty)
	}
}

func TestFig5Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("full application sweep")
	}
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	rel := func(name string) float64 {
		return float64(r.Apps[name]["M3"].Total) / float64(r.Apps[name]["Lx"].Total)
	}
	// The paper's qualitative results (§5.6).
	if v := rel("cat+tr"); v > 0.6 {
		t.Errorf("cat+tr: M3/Lx = %.2f, want well below 1 (paper ~0.5)", v)
	}
	if v := rel("tar"); v < 0.10 || v > 0.35 {
		t.Errorf("tar: M3/Lx = %.2f, want ~0.20", v)
	}
	if v := rel("untar"); v < 0.10 || v > 0.35 {
		t.Errorf("untar: M3/Lx = %.2f, want ~0.16", v)
	}
	if v := rel("find"); v < 1.0 {
		t.Errorf("find: M3/Lx = %.2f, want slightly above 1 (Linux wins)", v)
	}
	if v := rel("sqlite"); v < 0.85 || v >= 1.0 {
		t.Errorf("sqlite: M3/Lx = %.2f, want slightly below 1", v)
	}
}

func TestSec52Shape(t *testing.T) {
	r, err := Sec52()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	sys := r.Rows[0]
	if sys.Xtensa != 410 || sys.ARM != 320 {
		t.Fatalf("syscall row = %+v", sys)
	}
	// "Comparable results": overheads within ~25% of each other, in
	// the millions of cycles, with ARM slightly higher on create.
	create := r.Rows[1]
	if create.ARM <= create.Xtensa {
		t.Errorf("create overhead: ARM (%d) should slightly exceed Xtensa (%d)", create.ARM, create.Xtensa)
	}
	if ratio := float64(create.ARM) / float64(create.Xtensa); ratio > 1.25 {
		t.Errorf("create overhead ratio = %.2f, want comparable", ratio)
	}
	cp := r.Rows[2]
	if ratio := float64(cp.ARM) / float64(cp.Xtensa); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("copy overhead ratio = %.2f, want ~1.0", ratio)
	}
}

func TestFig7AcceleratorShape(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the accelerator wins by a huge margin; M3 with the
	// software FFT still beats Linux because exec, pipe, and file
	// writes have less overhead.
	if r.M3Soft.Total >= r.Linux.Total {
		t.Errorf("M3 soft (%d) should beat Linux (%d)", r.M3Soft.Total, r.Linux.Total)
	}
	speedup := float64(r.M3Soft.Total) / float64(r.M3Accel.Total)
	if speedup < 8 {
		t.Errorf("accelerator end-to-end speedup = %.1fx, want >= 8x", speedup)
	}
	if r.M3Accel.Total >= r.Linux.Total/5 {
		t.Errorf("accelerated chain (%d) should be far below Linux (%d)", r.M3Accel.Total, r.Linux.Total)
	}
}

func TestFig6ShapeSmall(t *testing.T) {
	// Small version of the scalability experiment: 1 vs 8 instances of
	// find (the most service-bound benchmark) and sqlite (the most
	// compute-bound).
	find, _ := workload.ByName("find")
	sqlite, _ := workload.ByName("sqlite")
	f1, err := meanRunTime(find, 1, Fig6Options())
	if err != nil {
		t.Fatal(err)
	}
	f8, err := meanRunTime(find, 8, Fig6Options())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := meanRunTime(sqlite, 1, Fig6Options())
	if err != nil {
		t.Fatal(err)
	}
	s8, err := meanRunTime(sqlite, 8, Fig6Options())
	if err != nil {
		t.Fatal(err)
	}
	findSlow := float64(f8) / float64(f1)
	sqliteSlow := float64(s8) / float64(s1)
	if sqliteSlow > 1.1 {
		t.Errorf("sqlite slowdown at 8 = %.2f, want ~1.0 (compute-bound)", sqliteSlow)
	}
	if findSlow <= sqliteSlow {
		t.Errorf("find (%.2f) must degrade more than sqlite (%.2f)", findSlow, sqliteSlow)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	bd := mustRun(t, Scenario{Workload: ReadBench()}).Breakdown()
	if bd.App+bd.Xfer+bd.OS != bd.Total {
		t.Fatalf("breakdown does not sum: %+v", bd)
	}
	// On Linux every bar must equal the run phase's linuxos.Stats
	// delta exactly: Breakdown's caps never bind there.
	bs := append([]workload.Benchmark{ReadBench(), WriteBench(), PipeBench(), copyBench(), accel.FFTChain(false)}, workload.All()...)
	for _, b := range bs {
		for _, lx := range []LxModel{
			{Profile: linuxos.ProfileXtensa}, {Profile: linuxos.ProfileXtensa, Cold: true},
			{Profile: linuxos.ProfileARM}, {Profile: linuxos.ProfileARM, Cold: true},
		} {
			var before, after linuxos.Stats
			probe := b
			probe.Run = func(os workload.OS) error {
				sys := os.(*workload.LxOS).Sys
				before = sys.Stats
				defer func() { after = sys.Stats }()
				return b.Run(os)
			}
			got := mustRun(t, Scenario{Workload: probe, Lx: &lx}).Breakdown()
			want := Breakdown{App: after.App - before.App, Xfer: after.Xfer - before.Xfer,
				OS: after.OS - before.OS, Total: after.Total() - before.Total()}
			if got != want {
				t.Errorf("%s on %s (cold %v): bars %v, stats deltas %v", b.Name, lx.Profile.Name, lx.Cold, got, want)
			}
		}
	}
}

// renderTables writes every table of every result as text and as CSV,
// failing on a write error or an empty CSV, and returns the text.
func renderTables(t *testing.T, results ...interface{ Tables() []*Table }) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range results {
		for _, tb := range r.Tables() {
			if err := tb.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := tb.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				t.Fatalf("empty CSV for %s", tb.Name)
			}
		}
	}
	return sb.String()
}

func TestReportTables(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	out := renderTables(t, r)
	for _, want := range []string{"Figure 3", "M3", "Lx", "read", "write", "pipe"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAllPrinters(t *testing.T) {
	// Render every result type once as text and CSV; rendering must not
	// panic and must carry the key labels.
	s52 := &Sec52Result{Rows: []Sec52Row{{Metric: "x", Xtensa: 1, ARM: 2}}}
	f4 := &Fig4Result{BlocksPerExtent: []int{16, 32}, ReadCycles: []sim.Time{100, 90}, WriteCycles: []sim.Time{110, 95}}
	f5 := &Fig5Result{Apps: map[string]map[string]Breakdown{
		"cat+tr": {"M3": {Total: 1}, "Lx-$": {Total: 2}, "Lx": {Total: 3}},
		"tar":    {"M3": {Total: 1}, "Lx-$": {Total: 2}, "Lx": {Total: 3}},
		"untar":  {"M3": {Total: 1}, "Lx-$": {Total: 2}, "Lx": {Total: 3}},
		"find":   {"M3": {Total: 1}, "Lx-$": {Total: 2}, "Lx": {Total: 3}},
		"sqlite": {"M3": {Total: 1}, "Lx-$": {Total: 2}, "Lx": {Total: 3}},
	}}
	f6 := &Fig6Result{Instances: []int{1, 2}, Normalized: map[string][]float64{
		"cat+tr": {0, 1}, "tar": {1, 1.1}, "untar": {1, 1.2}, "find": {1, 2}, "sqlite": {1, 1},
	}}
	f7 := &Fig7Result{Linux: Breakdown{Total: 3}, M3Soft: Breakdown{Total: 2}, M3Accel: Breakdown{Total: 1}}
	out := renderTables(t, s52, f4, f5, f6, f7)
	for _, want := range []string{"Section 5.2", "Figure 4", "Figure 5", "Figure 6", "Figure 7", "sqlite", "m3_accel"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q", want)
		}
	}
}

func TestCSVExport(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	tables := r.Tables()
	if len(tables) != 2 {
		t.Fatalf("fig3 CSV tables = %d", len(tables))
	}
	var sb strings.Builder
	if err := tables[1].WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 10 { // header + 3 ops x 3 systems
		t.Fatalf("fig3 fileops CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "op,system,total_cycles") {
		t.Fatalf("header = %q", lines[0])
	}
	s52, err := Sec52()
	if err != nil {
		t.Fatal(err)
	}
	if got := s52.Tables(); len(got) != 1 || len(got[0].Rows) != 4 {
		t.Fatalf("sec52 CSV shape wrong")
	}
}

func TestUtilizationTradeoff(t *testing.T) {
	// §3.4: M3 trades system utilization for heterogeneity support.
	// During tar, the kernel and service PEs idle most of the time and
	// even the app PE waits on DTU transfers; mean utilization is far
	// below the ~100% a time-shared single core achieves.
	r, err := RunUtilization(workload.Tar())
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean >= 0.7 {
		t.Fatalf("mean utilization = %.2f; expected well below 1 (the paper's trade-off)", r.Mean)
	}
	var kernel, app PEUtilization
	for _, u := range r.PEs {
		switch u.Role {
		case "kernel":
			kernel = u
		case "app":
			app = u
		}
	}
	if kernel.Busy >= app.Busy {
		t.Fatalf("kernel PE (%.2f) should idle more than the app PE (%.2f)", kernel.Busy, app.Busy)
	}
	if app.Busy <= 0 || app.Busy > 1 {
		t.Fatalf("app busy fraction = %.2f", app.Busy)
	}
	t.Log(r.String())
}
