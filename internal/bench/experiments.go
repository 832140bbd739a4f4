package bench

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/linuxos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig3Result reproduces Figure 3: null system calls (left) and 2 MiB
// read/write/pipe (right), each on M3, Lx-$ (warm), and Lx (cold).
type Fig3Result struct {
	SyscallM3     sim.Time
	SyscallM3Xfer sim.Time
	SyscallLx     sim.Time

	FileOps map[string]map[string]Breakdown // op -> system -> breakdown
}

// Fig3 runs experiment E1+E2.
func Fig3() (*Fig3Result, error) {
	r := &Fig3Result{}
	r.SyscallM3, r.SyscallM3Xfer = NullSyscallM3()
	r.SyscallLx = NullSyscallLx(linuxos.ProfileXtensa)
	var err error
	if r.FileOps, err = onEachOS("fig3", []workload.Benchmark{ReadBench(), WriteBench(), PipeBench()}); err != nil {
		return nil, err
	}
	return r, nil
}

// onEachOS runs each benchmark on M3, Lx-$ and Lx (Figures 3 and 5)
// and returns the bars, keyed by benchmark, then system.
func onEachOS(exp string, bs []workload.Benchmark) (map[string]map[string]Breakdown, error) {
	systems := []struct {
		name string
		lx   *LxModel
	}{
		{"M3", nil},
		{"Lx-$", &LxModel{Profile: linuxos.ProfileXtensa}},
		{"Lx", &LxModel{Profile: linuxos.ProfileXtensa, Cold: true}},
	}
	bars := map[string]map[string]Breakdown{}
	for _, b := range bs {
		row := map[string]Breakdown{}
		for _, sys := range systems {
			res, err := Scenario{Workload: b, Lx: sys.lx}.Run()
			if err != nil {
				return nil, fmt.Errorf("%s %s on %s: %w", exp, b.Name, sys.name, err)
			}
			row[sys.name] = res.Breakdown()
		}
		bars[b.Name] = row
	}
	return bars, nil
}

// Sec52Result reproduces the §5.2 Xtensa/ARM cross-check.
type Sec52Result struct {
	Rows []Sec52Row
}

// Sec52Row is one metric on both Linux profiles.
type Sec52Row struct {
	Metric      string
	Xtensa, ARM sim.Time
}

// Sec52 runs experiment E3: Linux syscall, 2 MiB file creation
// overhead, and 2 MiB copy overhead on both CPU profiles.
func Sec52() (*Sec52Result, error) {
	res := &Sec52Result{}
	res.Rows = append(res.Rows, Sec52Row{
		Metric: "null syscall (cycles)",
		Xtensa: NullSyscallLx(linuxos.ProfileXtensa),
		ARM:    NullSyscallLx(linuxos.ProfileARM),
	})
	// "Overhead" is everything beyond the raw memcpy of the data:
	// syscalls, fd lookups, page-cache work, and the zero-filling of
	// fresh blocks (warm caches, as the paper's numbers imply).
	overhead := func(b workload.Benchmark, p linuxos.Profile, bytes int) (sim.Time, error) {
		r, err := Scenario{Workload: b, Lx: &LxModel{Profile: p}}.Run()
		if err != nil {
			return 0, err
		}
		return r.Outcomes[0].RunTime - sim.Time(float64(bytes)/p.MemcpyBytesPerCycle), nil
	}
	for _, m := range []struct {
		metric string
		b      workload.Benchmark
		bytes  int
	}{
		{"create 2 MiB file overhead", WriteBench(), microFileSize},
		{"copy 2 MiB file overhead", copyBench(), 2 * microFileSize},
	} {
		row := Sec52Row{Metric: m.metric}
		var err error
		if row.Xtensa, err = overhead(m.b, linuxos.ProfileXtensa, m.bytes); err != nil {
			return nil, err
		}
		if row.ARM, err = overhead(m.b, linuxos.ProfileARM, m.bytes); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// copyBench reads a 2 MiB file and writes it to a new one.
func copyBench() workload.Benchmark {
	rb := ReadBench()
	return workload.Benchmark{
		Name:  "copy",
		PEs:   1,
		Setup: rb.Setup,
		Run: func(os workload.OS) error {
			src, err := os.Open("/bench.dat", workload.Read)
			if err != nil {
				return err
			}
			dst, err := os.Open("/bench.copy", workload.Write|workload.Create|workload.Trunc)
			if err != nil {
				return err
			}
			// Plain read+write loop (cp does not use sendfile).
			buf := make([]byte, microBufSize)
			for {
				n, rerr := src.Read(buf)
				if n > 0 {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						return werr
					}
				}
				if rerr != nil {
					break
				}
			}
			if err := src.Close(); err != nil {
				return err
			}
			return dst.Close()
		},
	}
}

// Fig4Result reproduces Figure 4: read/write time of a 2 MiB file
// depending on blocks per extent.
type Fig4Result struct {
	BlocksPerExtent []int
	ReadCycles      []sim.Time
	WriteCycles     []sim.Time
}

// Fig4 runs experiment E4, sweeping 16..2048 blocks per extent.
func Fig4() (*Fig4Result, error) {
	r := &Fig4Result{}
	for bpe := 16; bpe <= 2048; bpe *= 2 {
		opts := M3Options{AppendBlocks: bpe, NoMerge: true}
		w, err := Scenario{Workload: WriteBench(), M3Options: opts}.Run()
		if err != nil {
			return nil, fmt.Errorf("fig4 write bpe=%d: %w", bpe, err)
		}
		rd, err := Scenario{Workload: ReadBench(), M3Options: opts}.Run()
		if err != nil {
			return nil, fmt.Errorf("fig4 read bpe=%d: %w", bpe, err)
		}
		r.BlocksPerExtent = append(r.BlocksPerExtent, bpe)
		r.ReadCycles = append(r.ReadCycles, rd.Outcomes[0].RunTime)
		r.WriteCycles = append(r.WriteCycles, w.Outcomes[0].RunTime)
	}
	return r, nil
}

// Fig5Result reproduces Figure 5: the five application benchmarks on
// M3, Lx-$, and Lx with App/Xfers/OS breakdown.
type Fig5Result struct {
	Apps map[string]map[string]Breakdown // benchmark -> system -> breakdown
}

// Fig5 runs experiment E5.
func Fig5() (*Fig5Result, error) {
	apps, err := onEachOS("fig5", workload.All())
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Apps: apps}, nil
}

// Fig6Result reproduces Figure 6: scalability with 1..16 parallel
// benchmark instances on a single kernel and a single m3fs instance.
type Fig6Result struct {
	Instances []int
	// Normalized per-benchmark mean instance time, relative to the
	// 1-instance (2 for cat+tr) run.
	Normalized map[string][]float64
}

// Fig6 runs experiment E6.
func Fig6() (*Fig6Result, error) {
	counts := []int{1, 2, 4, 8, 16}
	r := &Fig6Result{Instances: counts, Normalized: map[string][]float64{}}
	for _, b := range workload.All() {
		var base sim.Time
		series := make([]float64, 0, len(counts))
		for _, n := range counts {
			if b.Name == "cat+tr" && n == 1 {
				// cat+tr needs two PEs per instance; the paper has no
				// 1-instance data point (§5.7). Use the 2-instance run
				// as the baseline.
				series = append(series, 0)
				continue
			}
			t, err := meanRunTime(b, n, Fig6Options())
			if err != nil {
				return nil, fmt.Errorf("fig6 %s n=%d: %w", b.Name, n, err)
			}
			if base == 0 {
				base = t
			}
			series = append(series, float64(t)/float64(base))
		}
		r.Normalized[b.Name] = series
	}
	return r, nil
}

// Fig7Result reproduces Figure 7: the FFT filter chain on Linux, on M3
// with the software FFT, and on M3 with the accelerator core.
type Fig7Result struct {
	Linux   Breakdown
	M3Soft  Breakdown
	M3Accel Breakdown
}

// Fig7 runs experiment E7.
func Fig7() (*Fig7Result, error) {
	lx, err := Scenario{Workload: accel.FFTChain(false), Lx: &LxModel{Profile: linuxos.ProfileXtensa, Cold: true}}.Run()
	if err != nil {
		return nil, fmt.Errorf("fig7 linux: %w", err)
	}
	soft, err := Scenario{Workload: accel.FFTChain(false)}.Run()
	if err != nil {
		return nil, fmt.Errorf("fig7 m3 soft: %w", err)
	}
	acc, err := Scenario{Workload: accel.FFTChain(true), M3Options: M3Options{FFTPEs: 1, ExtraPEs: -1}}.Run()
	if err != nil {
		return nil, fmt.Errorf("fig7 m3 accel: %w", err)
	}
	return &Fig7Result{Linux: lx.Breakdown(), M3Soft: soft.Breakdown(), M3Accel: acc.Breakdown()}, nil
}
