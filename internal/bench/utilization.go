package bench

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The utilization trade-off (§3.4): "The disadvantage of this design is
// the decrease in system utilization, because a PE is idling (for a
// certain time) if the application on that PE is waiting for an
// incoming message or the completion of a memory transfer." M3 accepts
// this in exchange for heterogeneity support and kept cache/TLB state.
// This experiment quantifies it: per-PE busy fractions during a
// benchmark, where idle time is the DTU-wait time the hardware
// observes. The idle counters are sampled on the simulated clock
// through the metrics registry, so the result carries the utilization
// trajectory of the run, not just its endpoint delta.

// MPEIdle is the per-PE cumulative DTU idle-cycle series the
// utilization experiment registers (index = PE id).
const MPEIdle = "bench_pe_idle_cycles"

// utilSampleEvery is the sampling interval of the utilization
// experiment, chosen well below the run length of every workload so a
// run spans many samples.
const utilSampleEvery sim.Time = 4096

// PEUtilization is one PE's share of busy cycles over the run.
type PEUtilization struct {
	PE   int
	Role string
	Busy float64 // 1 - idle/elapsed
	// IdleSeries is the sampled cumulative idle-cycle trajectory
	// (one value per sampler tick, oldest first).
	IdleSeries []int64
}

// UtilizationResult is the outcome of RunUtilization.
type UtilizationResult struct {
	Benchmark string
	Elapsed   sim.Time
	// SampleEvery is the registry sampling interval the idle series
	// were recorded at.
	SampleEvery sim.Time
	PEs         []PEUtilization
	// Mean is the average busy fraction across all PEs incl. kernel
	// and service — the "system utilization" the paper trades away.
	Mean float64
}

// RunUtilization executes b once on M3 and reports per-PE utilization
// over the run phase, derived from the registry-sampled idle series.
// The series are registered between boot and run, so they are sampled
// from the first tick on.
func RunUtilization(b workload.Benchmark) (*UtilizationResult, error) {
	tr := obs.New(obs.Options{})
	var r *Result
	var idleBase []uint64
	rb := b
	rb.Run = func(os workload.OS) error {
		// The run phase starts: note each PE's idle cycles for the
		// exact fallback below.
		for _, pe := range r.Plat.PEs {
			idleBase = append(idleBase, pe.DTU.IdleCyclesAt(r.Eng.Now()))
		}
		return b.Run(os)
	}
	sc := Scenario{Workload: rb, M3Options: M3Options{Obs: tr, SampleEvery: utilSampleEvery}}
	r, err := sc.boot()
	if err != nil {
		return nil, err
	}
	for _, pe := range r.Plat.PEs {
		d := pe.DTU
		tr.Metrics().Series(MPEIdle, pe.ID, func() int64 {
			return int64(d.IdleCyclesAt(r.Eng.Now()))
		})
	}
	if err := sc.run(r); err != nil {
		return nil, err
	}
	res := &UtilizationResult{Benchmark: b.Name, SampleEvery: utilSampleEvery, Elapsed: r.Outcomes[0].RunTime}
	start, end := r.Outcomes[0].StartAt, r.Outcomes[0].EndAt
	for i, pe := range r.Plat.PEs {
		series := tr.Metrics().Series(MPEIdle, pe.ID, nil).Samples()
		idle, window := idleOverRun(series, utilSampleEvery, start, end)
		if window == 0 {
			// Run shorter than the sampling window: fall back to the
			// exact endpoint delta.
			idle = int64(pe.DTU.IdleCyclesAt(end) - idleBase[i])
			window = res.Elapsed
		}
		busy := 1 - float64(idle)/float64(window)
		if busy < 0 {
			busy = 0
		}
		role := "app"
		switch i {
		case 0:
			role = "kernel"
		case 1:
			role = "m3fs"
		}
		res.PEs = append(res.PEs, PEUtilization{
			PE: pe.ID, Role: role, Busy: busy, IdleSeries: series,
		})
	}
	sort.SliceStable(res.PEs, func(i, j int) bool { return res.PEs[i].PE < res.PEs[j].PE })
	var sum float64
	for _, u := range res.PEs {
		sum += u.Busy
	}
	res.Mean = sum / float64(len(res.PEs))
	return res, nil
}

// idleOverRun extracts the idle-cycle delta a sampled cumulative series
// saw across the [start, end] run window. Sample k was taken at cycle
// (k+1)*every. It returns (0, 0) when fewer than two samples fall
// inside the window.
func idleOverRun(samples []int64, every, start, end sim.Time) (idle int64, window sim.Time) {
	first, last := -1, -1
	for k := range samples {
		at := sim.Time(k+1) * every
		if at < start || at > end {
			continue
		}
		if first < 0 {
			first = k
		}
		last = k
	}
	if first < 0 || last == first {
		return 0, 0
	}
	return samples[last] - samples[first], sim.Time(last-first) * every
}

func (r *UtilizationResult) String() string {
	s := fmt.Sprintf("%s: mean PE utilization %.1f%% over %d cycles (", r.Benchmark, r.Mean*100, r.Elapsed)
	for i, u := range r.PEs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%.0f%%", u.Role, u.Busy*100)
	}
	return s + ")"
}
