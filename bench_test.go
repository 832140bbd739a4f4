// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§5). Each benchmark runs the full
// simulation for its experiment and reports the simulated cycle counts
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// paper's numbers. The same experiments are available interactively
// via `go run ./cmd/m3bench`.
package repro

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkFig3 reproduces Figure 3: the null system call on M3
// (~200 cycles) vs. Linux (~410 cycles), and 2 MiB read, write, and
// pipe with 4 KiB buffers on M3, Lx-$ (warm), and Lx (cold).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SyscallM3), "syscall:m3-cycles")
		b.ReportMetric(float64(r.SyscallM3Xfer), "syscall:m3-xfer-cycles")
		b.ReportMetric(float64(r.SyscallLx), "syscall:lx-cycles")
		for op, bars := range r.FileOps {
			for sys, bd := range bars {
				b.ReportMetric(float64(bd.Total), op+":"+sys+"-cycles")
			}
		}
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
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for app, bars := range r.Apps {
			b.ReportMetric(float64(bars["M3"].Total)/float64(bars["Lx"].Total), app+":m3/lx")
		}
	}
}

// BenchmarkFig6Scalability reproduces Figure 6: per-instance time with
// up to 16 parallel instances on a single kernel and m3fs instance,
// relative to one instance (two for cat+tr, §5.7).
func BenchmarkFig6Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		for app, series := range r.Normalized {
			b.ReportMetric(series[len(series)-1], app+":slowdown@16")
		}
	}
}

// BenchmarkFig7Accelerator reproduces Figure 7: the FFT filter chain
// on Linux, M3 with the software FFT, and M3 with the accelerator.
func BenchmarkFig7Accelerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Linux.Total), "linux-cycles")
		b.ReportMetric(float64(r.M3Soft.Total), "m3soft-cycles")
		b.ReportMetric(float64(r.M3Accel.Total), "m3accel-cycles")
		b.ReportMetric(float64(r.M3Soft.Total)/float64(r.M3Accel.Total), "accel-speedup")
	}
}
