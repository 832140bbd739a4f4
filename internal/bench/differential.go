package bench

import (
	"fmt"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The differential engine harness: every workload the tier-1 suite
// exercises is run under each engine configuration — the reference
// binary-heap event queue and the production calendar queue — and
// every observable byte of the run is hashed into a witness. Two
// engine configurations are equivalent exactly when their witnesses
// are identical; TestEngineEquivalence enforces this on every CI run.

// EngineVariant names one engine configuration under differential test.
type EngineVariant struct {
	Name string
	Cfg  sim.Config
}

// EngineVariants returns the configuration matrix. The first entry is
// the reference: the binary heap kept precisely so the calendar queue
// has a trusted baseline to differ against.
func EngineVariants() []EngineVariant {
	return []EngineVariant{
		{"serial-heap", sim.Config{Queue: sim.QueueHeap}},
		{"serial-calendar", sim.Config{}},
	}
}

// DifferentialWitness condenses everything observable about one run.
// Two runs are behaviourally identical iff their witnesses are equal —
// the struct is comparable, so == is the whole equivalence check.
type DifferentialWitness struct {
	// Stats is the engine-level run witness: executed events and final
	// simulated time.
	Stats RunStats
	// LegacyHash digests the legacy trace stream ("%d %s %s\n" lines),
	// ObsHash the structured event stream (fixed binary encoding),
	// MetricsHash the end-of-run metrics snapshot.
	LegacyHash  uint64
	ObsHash     uint64
	MetricsHash uint64
	// ObsEvents counts structured events (a hash collision shield and a
	// friendlier first diff signal).
	ObsEvents int
	// Outcomes summarizes every chaos instance: completion, error text,
	// and run timing.
	Outcomes string
}

// String renders the witness compactly for test failure output.
func (w DifferentialWitness) String() string {
	return fmt.Sprintf("events=%d final=%d legacy=%016x obs=%016x(%d) metrics=%016x outcomes=%q",
		w.Stats.ExecutedEvents, w.Stats.FinalTime,
		w.LegacyHash, w.ObsHash, w.ObsEvents, w.MetricsHash, w.Outcomes)
}

// differentialSampleEvery keeps the metrics sampler armed during
// differential runs so sampler events participate in the equivalence
// check too.
const differentialSampleEvery sim.Time = 4096

// RunDifferential executes n instances of b under the given fault plan
// on one engine configuration, with every observability stream armed,
// and returns the run's witness. The fault plan matters: asynchronous
// control traffic (acks, nacks) only exists under fault injection, so
// a lossless differential run would leave that NoC path untested.
func RunDifferential(b workload.Benchmark, n int, plan fault.Plan, cfg sim.Config) (DifferentialWitness, error) {
	return RunDifferentialOverload(b, n, plan, cfg, nil)
}

// RunDifferentialOverload is RunDifferential with an overload policy
// armed on the system. Its point is the zero-overhead-when-off proof:
// an armed-but-idle policy (zero deadline, zero watermarks) must
// produce a witness bit-identical to a nil policy — not one extra
// event, trace line, or metric (TestOverloadIdleBitIdentical).
func RunDifferentialOverload(b workload.Benchmark, n int, plan fault.Plan, cfg sim.Config, ov *OverloadSpec) (DifferentialWitness, error) {
	var w DifferentialWitness
	obsHash := fnv.New64a()
	var buf [obs.EncodedSize]byte
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) {
		obsHash.Write(ev.AppendBinary(buf[:0]))
		w.ObsEvents++
	}})
	legacyHash := fnv.New64a()
	opt := M3Options{
		Obs:         tr,
		SampleEvery: differentialSampleEvery,
		Engine:      cfg,
		Overload:    ov,
		Tracer: func(at sim.Time, source, event string) {
			fmt.Fprintf(legacyHash, "%d %s %s\n", at, source, event)
		},
	}
	cr, err := RunM3Chaos(b, n, plan, opt)
	if err != nil {
		return w, err
	}
	w.Stats = cr.Stats
	w.LegacyHash = legacyHash.Sum64()
	w.ObsHash = obsHash.Sum64()
	mh := fnv.New64a()
	mh.Write([]byte(tr.Metrics().Snapshot()))
	w.MetricsHash = mh.Sum64()
	for i := range cr.Outcomes {
		o := &cr.Outcomes[i]
		errText := ""
		if o.Err != nil {
			errText = o.Err.Error()
		}
		w.Outcomes += fmt.Sprintf("%s fin=%v err=%q start=%d end=%d;",
			o.Name, o.Finished, errText, o.StartAt, o.EndAt)
	}
	return w, nil
}
