package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Every table-shaped experiment renders its result once, as titled
// tables of cells. m3bench writes the same cells three ways: as
// aligned text on stdout, as CSV files (-csv), and as the bench JSON's
// metrics (-json, ExperimentFromTables). Cycles are raw integers in
// every form.

// Table is one rendered result table. Rows[0] is the header; column 0
// of every other row is the row's label (ExperimentFromTables).
type Table struct {
	// Name is the CSV file's base name and the metric-name prefix.
	Name string
	// Title is the heading line of the text rendering.
	Title string
	Rows  [][]string
}

// WriteCSV writes the table as CSV, quoting cells that need it.
func (t *Table) WriteCSV(w io.Writer) error {
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			cells[i] = c
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes the title, then the rows column-aligned with a rule
// under the header, then a blank line.
func (t *Table) WriteText(w io.Writer) error {
	var widths []int
	for _, row := range t.Rows {
		for i, c := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		sb.WriteString(strings.TrimRight("  "+strings.Join(parts, "  "), " ") + "\n")
	}
	for i, row := range t.Rows {
		line(row)
		if i == 0 {
			rule := make([]string, len(row))
			for j := range rule {
				rule[j] = strings.Repeat("-", widths[j])
			}
			line(rule)
		}
	}
	sb.WriteString("\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// cyc formats plain cycles.
func cyc(t sim.Time) string { return fmt.Sprintf("%d", t) }

// Tables renders Figure 3.
func (r *Fig3Result) Tables() []*Table {
	sys := &Table{Name: "fig3_syscall", Title: "Figure 3 (left): null system call (cycles)", Rows: [][]string{
		{"system", "total_cycles", "xfer_cycles", "other_cycles"},
		{"m3", cyc(r.SyscallM3), cyc(r.SyscallM3Xfer), cyc(r.SyscallM3 - r.SyscallM3Xfer)},
		{"lx", cyc(r.SyscallLx), "0", cyc(r.SyscallLx)},
	}}
	ops := &Table{Name: "fig3_fileops", Title: "Figure 3 (right): 2 MiB file operations, 4 KiB buffers (cycles)", Rows: [][]string{
		{"op", "system", "total_cycles", "xfer_cycles", "os_cycles"},
	}}
	for _, op := range []string{"read", "write", "pipe"} {
		for _, s := range []string{"M3", "Lx-$", "Lx"} {
			b := r.FileOps[op][s]
			ops.Rows = append(ops.Rows, []string{op, s, cyc(b.Total), cyc(b.Xfer), cyc(b.OS + b.App)})
		}
	}
	return []*Table{sys, ops}
}

// Tables renders the §5.2 table.
func (r *Sec52Result) Tables() []*Table {
	t := &Table{Name: "sec52", Title: "Section 5.2: Linux on Xtensa vs. Linux on ARM (cycles)",
		Rows: [][]string{{"metric", "xtensa_cycles", "arm_cycles"}}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Metric, cyc(row.Xtensa), cyc(row.ARM)})
	}
	return []*Table{t}
}

// Tables renders Figure 4.
func (r *Fig4Result) Tables() []*Table {
	t := &Table{Name: "fig4", Title: "Figure 4: read/write 2 MiB vs. file fragmentation (cycles)",
		Rows: [][]string{{"blocks_per_extent", "read_cycles", "write_cycles"}}}
	for i, bpe := range r.BlocksPerExtent {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bpe), cyc(r.ReadCycles[i]), cyc(r.WriteCycles[i]),
		})
	}
	return []*Table{t}
}

// Tables renders Figure 5. vs_lx is each total relative to the cold
// Linux total of the same benchmark.
func (r *Fig5Result) Tables() []*Table {
	t := &Table{Name: "fig5", Title: "Figure 5: application-level benchmarks (cycles; vs_lx = total / Lx total)", Rows: [][]string{
		{"benchmark", "system", "total_cycles", "app_cycles", "xfer_cycles", "os_cycles", "vs_lx"},
	}}
	for _, name := range []string{"cat+tr", "tar", "untar", "find", "sqlite"} {
		lx := r.Apps[name]["Lx"].Total
		for _, s := range []string{"M3", "Lx-$", "Lx"} {
			b := r.Apps[name][s]
			rel := 1.0
			if lx > 0 {
				rel = float64(b.Total) / float64(lx)
			}
			t.Rows = append(t.Rows, []string{
				name, s, cyc(b.Total), cyc(b.App), cyc(b.Xfer), cyc(b.OS), fmt.Sprintf("%.4f", rel),
			})
		}
	}
	return []*Table{t}
}

// Tables renders Figure 6. The empty cell is cat+tr's missing
// 1-instance point.
func (r *Fig6Result) Tables() []*Table {
	header := []string{"benchmark"}
	for _, n := range r.Instances {
		header = append(header, fmt.Sprintf("n%d", n))
	}
	t := &Table{Name: "fig6", Title: "Figure 6: scalability, time per instance normalized to the first run (flatter is better)",
		Rows: [][]string{header}}
	for _, name := range []string{"cat+tr", "tar", "untar", "find", "sqlite"} {
		row := []string{name}
		for _, v := range r.Normalized[name] {
			if v == 0 {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%.4f", v))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// Tables renders Figure 7.
func (r *Fig7Result) Tables() []*Table {
	t := &Table{Name: "fig7", Title: "Figure 7: FFT filter chain, 32 KiB (cycles; app = generation + FFT)", Rows: [][]string{
		{"system", "total_cycles", "app_cycles", "xfer_cycles", "os_cycles"},
	}}
	for _, e := range []struct {
		name string
		b    Breakdown
	}{{"linux", r.Linux}, {"m3_soft", r.M3Soft}, {"m3_accel", r.M3Accel}} {
		t.Rows = append(t.Rows, []string{
			e.name, cyc(e.b.Total), cyc(e.b.App), cyc(e.b.Xfer), cyc(e.b.OS),
		})
	}
	return []*Table{t}
}
