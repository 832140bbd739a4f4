package bench

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Run captures for the bench gate (docs/OBSERVABILITY.md): `m3bench
// -capture` runs each experiment's representative workload once more
// with the profiler and the critical-path engine armed and bundles the
// resulting obs.RunCapture values into the bench JSON. When a later
// `-diff` finds a regression, the two files' captures are aligned
// (obs.DiffCaptures) to attribute the delta — see diffreport.go.
//
// Captures ride in the same schema-versioned file but are pure sink
// output: arming them never schedules an event, so the measured
// experiments and the determinism witness are bit-identical with and
// without -capture.

// Capture runs the scenario with the folded profiler and the
// critical-path engine fanned out from the structured tracer and
// returns the bundled capture, named after the scenario's workload,
// with the run's result. It arms its own tracer over the
// scenario's options, so any M3 scenario captures: instances, faults,
// a wrapped workload. Identical scenarios return byte-identical
// captures.
func Capture(sc Scenario) (*obs.RunCapture, *Result, error) {
	prof := obs.NewProfiler()
	cp := obs.NewCritPath(obs.CritPathOptions{})
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) {
		prof.Consume(ev)
		cp.Consume(ev)
	}})
	sc.Obs = tr
	r, err := sc.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("bench: capture run %s: %w", sc.Workload.Name, err)
	}
	hists := append(tr.Histograms(), cp.Hist())
	return obs.NewRunCapture(sc.Workload.Name, prof, cp, tr.Metrics(), hists), r, nil
}

// CaptureAll captures the distinct workloads behind the experiments on
// the default platform, in workload-name order.
func CaptureAll(exps []Experiment) ([]*obs.RunCapture, error) {
	seen := map[string]bool{}
	var names []string
	for _, e := range exps {
		if w := e.Capture; !seen[w] {
			seen[w] = true
			names = append(names, w)
		}
	}
	sort.Strings(names)
	caps := make([]*obs.RunCapture, 0, len(names))
	for _, w := range names {
		b, err := workload.ByName(w)
		if err != nil {
			return nil, err
		}
		c, _, err := Capture(Scenario{Workload: b})
		if err != nil {
			return nil, err
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// FindCapture returns the file's capture of the given workload, or nil.
func FindCapture(f *BenchFile, workload string) *obs.RunCapture {
	for _, c := range f.Captures {
		if c != nil && c.Workload == workload {
			return c
		}
	}
	return nil
}
