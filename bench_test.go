// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§5). Each benchmark runs the full
// simulation for its experiment and reports the simulated cycle counts
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// paper's numbers. The same experiments are available interactively
// via `go run ./cmd/m3bench`.
package repro

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkFig3Syscall reproduces Figure 3 (left): the null system
// call on M3 (~200 cycles) vs. Linux (~410 cycles).
func BenchmarkFig3Syscall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m3Total, m3Xfer := bench.NullSyscallM3()
		lx := bench.NullSyscallLx(linuxos.ProfileXtensa)
		b.ReportMetric(float64(m3Total), "m3-cycles")
		b.ReportMetric(float64(m3Xfer), "m3-xfer-cycles")
		b.ReportMetric(float64(lx), "lx-cycles")
	}
}

// BenchmarkFig3FileOps reproduces Figure 3 (right): 2 MiB read, write,
// and pipe with 4 KiB buffers on M3, Lx-$ (warm), and Lx (cold).
func BenchmarkFig3FileOps(b *testing.B) {
	for _, wl := range []workload.Benchmark{bench.ReadBench(), bench.WriteBench(), bench.PipeBench()} {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m3, err := bench.Scenario{Workload: wl}.Run()
				if err != nil {
					b.Fatal(err)
				}
				warm, err := bench.RunLx(wl, linuxos.ProfileXtensa, false)
				if err != nil {
					b.Fatal(err)
				}
				cold, err := bench.RunLx(wl, linuxos.ProfileXtensa, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m3.Breakdown().Total), "m3-cycles")
				b.ReportMetric(float64(warm.Total), "lxwarm-cycles")
				b.ReportMetric(float64(cold.Total), "lxcold-cycles")
			}
		})
	}
}

// BenchmarkSec52ArmXtensa reproduces the §5.2 cross-check: Linux costs
// on Xtensa vs. ARM profiles.
func BenchmarkSec52ArmXtensa(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Sec52()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.ARM)/float64(row.Xtensa), "arm/xtensa:"+row.Metric[:4])
		}
	}
}

// BenchmarkFig4Fragmentation reproduces Figure 4: read/write time vs.
// blocks per extent; the sweet spot is 256.
func BenchmarkFig4Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.ReadCycles[0], r.ReadCycles[len(r.ReadCycles)-1]
		b.ReportMetric(float64(first), "read16-cycles")
		b.ReportMetric(float64(last), "read2048-cycles")
		b.ReportMetric(float64(first)/float64(last), "frag-penalty")
	}
}

// BenchmarkFig5Apps reproduces Figure 5: the five application-level
// benchmarks on M3 vs. Linux (cold), reporting M3's relative time.
func BenchmarkFig5Apps(b *testing.B) {
	for _, wl := range workload.All() {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m3, err := bench.Scenario{Workload: wl}.Run()
				if err != nil {
					b.Fatal(err)
				}
				lx, err := bench.RunLx(wl, linuxos.ProfileXtensa, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m3.Breakdown().Total), "m3-cycles")
				b.ReportMetric(float64(lx.Total), "lx-cycles")
				b.ReportMetric(float64(m3.Breakdown().Total)/float64(lx.Total), "m3/lx")
			}
		})
	}
}

// BenchmarkFig6Scalability reproduces Figure 6: per-instance time with
// 1 and 16 parallel instances on a single kernel and m3fs instance.
func BenchmarkFig6Scalability(b *testing.B) {
	for _, wl := range workload.All() {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseN := 1
				if wl.Name == "cat+tr" {
					baseN = 2 // needs two PEs per instance (§5.7)
				}
				base, err := meanRunTime(wl, baseN)
				if err != nil {
					b.Fatal(err)
				}
				t16, err := meanRunTime(wl, 16)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(base), "base-cycles")
				b.ReportMetric(float64(t16)/float64(base), "slowdown@16")
			}
		})
	}
}

// BenchmarkFig7Accelerator reproduces Figure 7: the FFT filter chain
// on Linux, M3 with the software FFT, and M3 with the accelerator.
func BenchmarkFig7Accelerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lx, err := bench.RunLx(accel.FFTChain(false), linuxos.ProfileXtensa, true)
		if err != nil {
			b.Fatal(err)
		}
		soft, err := bench.Scenario{Workload: accel.FFTChain(false)}.Run()
		if err != nil {
			b.Fatal(err)
		}
		acc, err := bench.Scenario{Workload: accel.FFTChain(true), M3Options: bench.M3Options{FFTPEs: 1, ExtraPEs: -1}}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(lx.Total), "linux-cycles")
		b.ReportMetric(float64(soft.Breakdown().Total), "m3soft-cycles")
		b.ReportMetric(float64(acc.Breakdown().Total), "m3accel-cycles")
		b.ReportMetric(float64(soft.Breakdown().Total)/float64(acc.Breakdown().Total), "accel-speedup")
	}
}

// meanRunTime runs n instances of wl on the Figure 6 platform and
// returns the mean instance time.
func meanRunTime(wl workload.Benchmark, n int) (sim.Time, error) {
	r, err := bench.Scenario{Workload: wl, Instances: n, M3Options: bench.Fig6Options()}.Run()
	if err != nil {
		return 0, err
	}
	return r.MeanRunTime()
}
