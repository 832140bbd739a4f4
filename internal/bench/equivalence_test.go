package bench

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// differentialPlan is the fault plan every differential run uses: a
// lossy, corrupting NoC. It exercises retransmission, NACKs, and the
// asynchronous control traffic (NoC SendAsync) — the lossless model
// never sends an async packet.
func differentialPlan() fault.Plan {
	return fault.Plan{Seed: chaosSeed, DropRate: 0.01, CorruptRate: 0.002}
}

// TestEngineEquivalence is the headline differential test: every
// tier-1 workload runs under the reference heap queue and the calendar
// queue, and every observable byte — engine statistics, structured
// event stream, metrics snapshot, per-instance outcomes —
// must be identical.
func TestEngineEquivalence(t *testing.T) {
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			variants := EngineVariants()
			ref, err := RunDifferential(b, 2, differentialPlan(), variants[0].Cfg)
			if err != nil {
				t.Fatalf("%s: %v", variants[0].Name, err)
			}
			if ref.Stats.ExecutedEvents == 0 || ref.ObsEvents == 0 || ref.ObsHash == 0 || ref.MetricsHash == 0 {
				t.Fatalf("%s: empty witness, harness broken: %v", variants[0].Name, ref)
			}
			for _, v := range variants[1:] {
				w, err := RunDifferential(b, 2, differentialPlan(), v.Cfg)
				if err != nil {
					t.Fatalf("%s: %v", v.Name, err)
				}
				if w != ref {
					t.Errorf("%s diverges from %s:\n  ref: %v\n  got: %v",
						v.Name, variants[0].Name, ref, w)
				}
			}
		})
	}
}

// TestEngineEquivalenceNoFault: the variants must also agree on a
// lossless run (no async control traffic at all), catching a queue
// that only agrees when the fault layer perturbs timing.
func TestEngineEquivalenceNoFault(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	variants := EngineVariants()
	ref, err := RunDifferential(b, 2, fault.Plan{Seed: chaosSeed}, variants[0].Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants[1:] {
		w, err := RunDifferential(b, 2, fault.Plan{Seed: chaosSeed}, v.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if w != ref {
			t.Errorf("%s diverges from %s:\n  ref: %v\n  got: %v", v.Name, variants[0].Name, ref, w)
		}
	}
}

// TestDifferentialRunIsDeterministic: one configuration, run twice,
// must witness-match itself — the precondition for cross-engine
// comparison to mean anything.
func TestDifferentialRunIsDeterministic(t *testing.T) {
	b, err := workload.ByName("cat+tr")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunDifferential(b, 2, differentialPlan(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunDifferential(b, 2, differentialPlan(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("default engine not self-deterministic:\n  1st: %v\n  2nd: %v", a, c)
	}
}
