package bench

import (
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The differential harness: a workload runs with every observability
// stream armed, and every observable byte of the run is hashed into a
// witness. Two runs behave identically exactly when their witnesses
// are equal. TestEngineEquivalence and TestEngineEquivalenceNoFault pin
// the witness of every tier-1 workload, lossy and lossless, so any
// change to the simulated schedule fails CI.

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

// RunDifferential executes n instances of b under the given fault plan,
// with every observability stream armed, and returns the run's witness.
// The fault plan matters: asynchronous control traffic (acks, nacks)
// only exists under fault injection, so a lossless run would leave that
// NoC path untested. opt configures the platform; its Obs is set
// here. An opt.RxWatermark arms admission control
// on the m3fs PE. Its point is the zero-overhead-when-idle proof: a
// watermark no ring can reach must produce a witness bit-identical to
// an unarmed run — not one extra engine event, obs event, or metric
// (TestOverloadIdleBitIdentical).
func RunDifferential(b workload.Benchmark, n int, plan fault.Plan, opt M3Options) (DifferentialWitness, error) {
	var w DifferentialWitness
	sh := newStreamHash()
	tr := obs.New(obs.Options{Sink: sh.Consume})
	opt.Obs = tr
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
