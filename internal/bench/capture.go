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

// RunWorkloadCapture runs one workload with the folded profiler and
// the critical-path engine fanned out from the structured tracer and
// returns the bundled capture. The capture arms its own tracer and
// sampler over opt, and opt.DispatchCostDelta seeds the `m3sim diff`
// self-test's kernel-side regression. Identical (workload, options)
// runs return byte-identical captures.
func RunWorkloadCapture(name string, opt M3Options) (*obs.RunCapture, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prof := obs.NewProfiler()
	cp := obs.NewCritPath(obs.CritPathOptions{})
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) {
		prof.Consume(ev)
		cp.Consume(ev)
	}})
	opt.Obs, opt.SampleEvery = tr, witnessSampleEvery
	if _, err := (Scenario{Workload: b, M3Options: opt}).Run(); err != nil {
		return nil, fmt.Errorf("bench: capture run %s: %w", name, err)
	}
	hists := append(tr.Histograms(), cp.Hist())
	return obs.NewRunCapture(name, prof, cp, tr.Metrics(), hists), nil
}

// CaptureAll captures the distinct workloads behind the experiments,
// in workload-name order.
func CaptureAll(exps []Experiment, opt M3Options) ([]*obs.RunCapture, error) {
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
		c, err := RunWorkloadCapture(w, opt)
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
