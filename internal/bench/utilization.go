package bench

import (
	"fmt"

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
// observes, read from each DTU's idle counter at the start and the end
// of the run phase.

// PEUtilization is one PE's share of busy cycles over the run.
type PEUtilization struct {
	PE   int
	Role string
	Busy float64 // 1 - idle/elapsed
}

// UtilizationResult is the outcome of RunUtilization.
type UtilizationResult struct {
	Benchmark string
	Elapsed   sim.Time
	PEs       []PEUtilization // in PE id order
	// Mean is the average busy fraction across all PEs incl. kernel
	// and service — the "system utilization" the paper trades away.
	Mean float64
}

// RunUtilization executes b once on M3 and reports per-PE utilization
// over the run phase: each DTU's idle cycles between the run's start
// and end, over the run time.
func RunUtilization(b workload.Benchmark) (*UtilizationResult, error) {
	var r *Result
	var idle []int64 // per PE, over the run phase
	rb := b
	rb.Run = func(os workload.OS) error {
		// Both readings are taken live: a wait that ends after the run
		// phase is added to the DTU's counter only when it ends, so a
		// reading after the run would count its cycles past the end.
		for _, pe := range r.Plat.PEs {
			idle = append(idle, -int64(pe.DTU.IdleCyclesAt(r.Eng.Now())))
		}
		err := b.Run(os)
		for i, pe := range r.Plat.PEs {
			idle[i] += int64(pe.DTU.IdleCyclesAt(r.Eng.Now()))
		}
		return err
	}
	sc := Scenario{Workload: rb}
	r, err := sc.boot()
	if err != nil {
		return nil, err
	}
	if err := sc.run(r); err != nil {
		return nil, err
	}
	res := &UtilizationResult{Benchmark: b.Name, Elapsed: r.Outcomes[0].RunTime}
	var sum float64
	for i, pe := range r.Plat.PEs {
		busy := 1 - float64(idle[i])/float64(res.Elapsed)
		role := "app"
		switch i {
		case 0:
			role = "kernel"
		case 1:
			role = "m3fs"
		}
		res.PEs = append(res.PEs, PEUtilization{PE: pe.ID, Role: role, Busy: busy})
		sum += busy
	}
	res.Mean = sum / float64(len(res.PEs))
	return res, nil
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

// utilMetrics runs the utilization experiment over every workload. Its
// metrics are built by hand: busy fractions are higher-is-better, so
// each PE is gated on its idle fraction instead, under a looser
// tolerance than cycle counts, since utilization is a coarse trade-off
// measurement.
func utilMetrics() (BenchExperiment, error) {
	exp := BenchExperiment{Name: "util"}
	for _, b := range workload.All() {
		r, err := RunUtilization(b)
		if err != nil {
			return exp, err
		}
		exp.Metrics = append(exp.Metrics, BenchMetric{
			Name: "util/" + r.Benchmark + "/elapsed_cycles", Value: float64(r.Elapsed), Unit: "cycles",
		})
		for _, u := range r.PEs {
			exp.Metrics = append(exp.Metrics, BenchMetric{
				Name:  fmt.Sprintf("util/%s/pe%d_%s_idle", r.Benchmark, u.PE, u.Role),
				Value: 1 - u.Busy,
				Unit:  "ratio",
				Tol:   0.25,
			})
		}
	}
	return exp, nil
}
