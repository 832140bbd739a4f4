package bench

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

// differentialPlan is the lossy fault plan of the differential runs: a
// dropping, corrupting NoC. It exercises retransmission, NACKs, and the
// asynchronous control traffic (NoC SendAsync) — the lossless model
// never sends an async packet.
func differentialPlan() fault.Plan {
	return fault.Plan{Seed: chaosSeed, DropRate: 0.01, CorruptRate: 0.002}
}

// pinnedWitnesses holds the DifferentialWitness of every tier-1
// workload at n = 2, under the lossy differentialPlan and under the
// lossless fault.Plan{Seed: chaosSeed}. The values were recorded when
// the binary-heap event queue was deleted, and the heap and the
// calendar queue produced exactly these witnesses then. Editing a row
// is a deliberate change of simulated behaviour and must be justified
// in CHANGES.md.
var pinnedWitnesses = map[string]struct{ lossy, lossless string }{
	"cat+tr": {
		`events=6392 final=159744 obs=a06653739ffe868b(1726) metrics=ef9dace8a6f47d9a outcomes="chaos0 fin=true err=\"\" start=36091 end=157284;chaos1 fin=true err=\"\" start=36091 end=151843;"`,
		`events=6261 final=139264 obs=2deb61524aee294a(1685) metrics=b5abb9484dad84a2 outcomes="chaos0 fin=true err=\"\" start=26189 end=135283;chaos1 fin=true err=\"\" start=26189 end=132274;"`,
	},
	"tar": {
		`events=33838 final=909312 obs=c943a11018a6e445(6749) metrics=34663e011913474c outcomes="chaos0 fin=true err=\"\" start=298838 end=903757;chaos1 fin=true err=\"\" start=298838 end=860061;"`,
		`events=32849 final=770048 obs=454c337a39719777(6501) metrics=2470c745ebacdeb3 outcomes="chaos0 fin=true err=\"\" start=253808 end=766615;chaos1 fin=true err=\"\" start=253808 end=767484;"`,
	},
	"untar": {
		`events=55424 final=1449984 obs=2d9656261fe88788(10862) metrics=bdbb8dba40f3dc0a outcomes="chaos0 fin=true err=\"\" start=877212 end=1444513;chaos1 fin=true err=\"\" start=877212 end=1435187;"`,
		`events=53980 final=1277952 obs=a8518b3ab75ba613(10521) metrics=431ecb26a0dfaacd outcomes="chaos0 fin=true err=\"\" start=760520 end=1270796;chaos1 fin=true err=\"\" start=760520 end=1271665;"`,
	},
	"find": {
		`events=13959 final=442368 obs=ea718dcd9bdc4120(6926) metrics=7b3e87398f15b62d outcomes="chaos0 fin=true err=\"\" start=267793 end=434167;chaos1 fin=true err=\"\" start=267793 end=439734;"`,
		`events=13603 final=397312 obs=8cb9faa0d9200a7e(6739) metrics=9ef349ccf83642ca outcomes="chaos0 fin=true err=\"\" start=229114 end=391852;chaos1 fin=true err=\"\" start=229114 end=393632;"`,
	},
	"sqlite": {
		`events=3056 final=2646016 obs=f6bf4c81326432cc(907) metrics=4cfd8c3fb2eed7b7 outcomes="chaos0 fin=true err=\"\" start=7058 end=2636697;chaos1 fin=true err=\"\" start=7058 end=2638166;"`,
		`events=2934 final=2633728 obs=7b76f1454c052833(847) metrics=534272062c0b9e13 outcomes="chaos0 fin=true err=\"\" start=4345 end=2628704;chaos1 fin=true err=\"\" start=4345 end=2630669;"`,
	},
}

// TestEngineEquivalence is the headline differential test: every
// tier-1 workload, under the lossy differentialPlan, must reproduce the
// lossy column of its pinned witness — engine statistics, structured
// event stream, metrics snapshot, per-instance outcomes.
func TestEngineEquivalence(t *testing.T) {
	checkPinnedWitnesses(t, differentialPlan(), "lossy",
		func(w struct{ lossy, lossless string }) string { return w.lossy })
}

// TestEngineEquivalenceNoFault: the same table, lossless column. A
// lossless run sends no async control traffic at all, so it catches a
// drift that only shows when the fault layer does not perturb timing.
func TestEngineEquivalenceNoFault(t *testing.T) {
	checkPinnedWitnesses(t, fault.Plan{Seed: chaosSeed}, "lossless",
		func(w struct{ lossy, lossless string }) string { return w.lossless })
}

// checkPinnedWitnesses runs every tier-1 workload at n = 2 under plan
// and compares its witness with one column of pinnedWitnesses. On a
// mismatch it prints the cell as the code now produces it.
func checkPinnedWitnesses(t *testing.T, plan fault.Plan, column string, cell func(struct{ lossy, lossless string }) string) {
	for _, b := range workload.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := pinnedWitnesses[b.Name]
			if !ok {
				t.Fatalf("no pinned witness for workload %q", b.Name)
			}
			w, err := RunDifferential(b, 2, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.String(); got != cell(want) {
				t.Errorf("%s witness of %q drifted from the pinned row; the code now gives:\n\t`%s`",
					column, b.Name, got)
			}
		})
	}
}

// TestDifferentialRunIsDeterministic: one configuration, run twice,
// must witness-match itself — the precondition for a pinned witness to
// mean anything.
func TestDifferentialRunIsDeterministic(t *testing.T) {
	b, err := workload.ByName("cat+tr")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunDifferential(b, 2, differentialPlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunDifferential(b, 2, differentialPlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("engine not self-deterministic:\n  1st: %v\n  2nd: %v", a, c)
	}
}
