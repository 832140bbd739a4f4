package bench

import (
	"fmt"
	"hash"
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
	// ObsHash digests the structured event stream (fixed binary
	// encoding), MetricsHash the end-of-run metrics snapshot.
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
	return fmt.Sprintf("events=%d final=%d obs=%016x(%d) metrics=%016x outcomes=%q",
		w.Stats.ExecutedEvents, w.Stats.FinalTime,
		w.ObsHash, w.ObsEvents, w.MetricsHash, w.Outcomes)
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
// engine event, obs event, or metric (TestOverloadIdleBitIdentical).
func RunDifferentialOverload(b workload.Benchmark, n int, plan fault.Plan, cfg sim.Config, ov *OverloadSpec) (DifferentialWitness, error) {
	var w DifferentialWitness
	sh := newStreamHash()
	tr := obs.New(obs.Options{Sink: sh.Consume})
	opt := M3Options{
		Obs:         tr,
		SampleEvery: differentialSampleEvery,
		Engine:      cfg,
		Overload:    ov,
	}
	cr, err := Scenario{Workload: b, Instances: n, Faults: &plan, M3Options: opt}.Run()
	if err != nil {
		return w, err
	}
	w.Stats = cr.Stats
	w.ObsHash, w.ObsEvents = sh.Sum64(), sh.Events
	w.MetricsHash = snapshotHash(tr)
	for i := range cr.Outcomes {
		o := &cr.Outcomes[i]
		errText := ""
		if o.Err != nil {
			errText = o.Err.Error()
		}
		// The chaos<k> label is part of the witness format, which stays
		// fixed so that witnesses compare across versions.
		w.Outcomes += fmt.Sprintf("chaos%d fin=%v err=%q start=%d end=%d;",
			i, o.Finished, errText, o.StartAt, o.EndAt)
	}
	return w, nil
}

// streamHash digests a structured event stream: an FNV-1a hash over
// every event's canonical binary encoding, plus the event count. Its
// Consume is a valid obs.Options.Sink.
type streamHash struct {
	hash.Hash64
	Events int
	buf    [obs.EncodedSize]byte
}

func newStreamHash() *streamHash { return &streamHash{Hash64: fnv.New64a()} }

// Consume hashes one event.
func (s *streamHash) Consume(ev obs.Event) {
	s.Write(ev.AppendBinary(s.buf[:0]))
	s.Events++
}

// snapshotHash digests the tracer's end-of-run metrics snapshot.
func snapshotHash(tr *obs.Tracer) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tr.Metrics().Snapshot()))
	return h.Sum64()
}
