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

// witnessRow is one workload's pinned witnesses, one per column.
type witnessRow struct{ lossy, lossless, uncontended string }

// pinnedWitnesses holds the DifferentialWitness of every tier-1
// workload at n = 2, under the lossy differentialPlan and under the
// lossless fault.Plan{Seed: chaosSeed}, both on the contended mesh,
// and under the lossy plan on the uncontended mesh of Figure 6
// (NoCUnlimited), where a sender rides a packet through a clear window
// in place and meets the per-hop fault hook there. The lossy and
// lossless values were recorded when the binary-heap event queue was
// deleted, and the heap and the calendar queue produced exactly these
// witnesses then; the uncontended ones before Network.Send learned to
// ride, when every flight parked its sender. Editing a row is a
// deliberate change of simulated behaviour and must be justified in
// CHANGES.md.
var pinnedWitnesses = map[string]witnessRow{
	"cat+tr": {
		`events=6392 final=159744 obs=a06653739ffe868b(1726) metrics=ef9dace8a6f47d9a outcomes="chaos0 fin=true err=\"\" start=36091 end=157284;chaos1 fin=true err=\"\" start=36091 end=151843;"`,
		`events=6261 final=139264 obs=2deb61524aee294a(1685) metrics=b5abb9484dad84a2 outcomes="chaos0 fin=true err=\"\" start=26189 end=135283;chaos1 fin=true err=\"\" start=26189 end=132274;"`,
		`events=5003 final=151552 obs=3d33c7a471a82dec(1735) metrics=7b5c7a12598f6005 outcomes="chaos0 fin=true err=\"\" start=25633 end=146054;chaos1 fin=true err=\"\" start=25633 end=138780;"`,
	},
	"tar": {
		`events=33838 final=909312 obs=c943a11018a6e445(6749) metrics=34663e011913474c outcomes="chaos0 fin=true err=\"\" start=298838 end=903757;chaos1 fin=true err=\"\" start=298838 end=860061;"`,
		`events=32849 final=770048 obs=454c337a39719777(6501) metrics=2470c745ebacdeb3 outcomes="chaos0 fin=true err=\"\" start=253808 end=766615;chaos1 fin=true err=\"\" start=253808 end=767484;"`,
		`events=27203 final=884736 obs=e4e92d644590875f(6695) metrics=c9cc92aa29a023fb outcomes="chaos0 fin=true err=\"\" start=295828 end=881521;chaos1 fin=true err=\"\" start=295828 end=852925;"`,
	},
	"untar": {
		`events=55424 final=1449984 obs=2d9656261fe88788(10862) metrics=bdbb8dba40f3dc0a outcomes="chaos0 fin=true err=\"\" start=877212 end=1444513;chaos1 fin=true err=\"\" start=877212 end=1435187;"`,
		`events=53980 final=1277952 obs=a8518b3ab75ba613(10521) metrics=431ecb26a0dfaacd outcomes="chaos0 fin=true err=\"\" start=760520 end=1270796;chaos1 fin=true err=\"\" start=760520 end=1271665;"`,
		`events=44645 final=1486848 obs=2b98abfff2ad1590(10863) metrics=d2d5a339151e7171 outcomes="chaos0 fin=true err=\"\" start=887186 end=1480956;chaos1 fin=true err=\"\" start=887186 end=1434384;"`,
	},
	"find": {
		`events=13959 final=442368 obs=ea718dcd9bdc4120(6926) metrics=7b3e87398f15b62d outcomes="chaos0 fin=true err=\"\" start=267793 end=434167;chaos1 fin=true err=\"\" start=267793 end=439734;"`,
		`events=13603 final=397312 obs=8cb9faa0d9200a7e(6739) metrics=9ef349ccf83642ca outcomes="chaos0 fin=true err=\"\" start=229114 end=391852;chaos1 fin=true err=\"\" start=229114 end=393632;"`,
		`events=11805 final=442368 obs=258dd3c97939ac0f(6876) metrics=dd837fc3d328d622 outcomes="chaos0 fin=true err=\"\" start=267241 end=435617;chaos1 fin=true err=\"\" start=267241 end=436796;"`,
	},
	"sqlite": {
		`events=3056 final=2646016 obs=f6bf4c81326432cc(907) metrics=4cfd8c3fb2eed7b7 outcomes="chaos0 fin=true err=\"\" start=7058 end=2636697;chaos1 fin=true err=\"\" start=7058 end=2638166;"`,
		`events=2934 final=2633728 obs=7b76f1454c052833(847) metrics=534272062c0b9e13 outcomes="chaos0 fin=true err=\"\" start=4345 end=2628704;chaos1 fin=true err=\"\" start=4345 end=2630669;"`,
		`events=2597 final=2637824 obs=73fc1b4877a1e561(867) metrics=919b1282055447d4 outcomes="chaos0 fin=true err=\"\" start=6398 end=2631926;chaos1 fin=true err=\"\" start=6398 end=2635540;"`,
	},
}

// TestEngineEquivalence is the headline differential test: every
// tier-1 workload, under the lossy differentialPlan, must reproduce the
// lossy column of its pinned witness — engine statistics, structured
// event stream, metrics snapshot, per-instance outcomes.
func TestEngineEquivalence(t *testing.T) {
	checkPinnedWitnesses(t, differentialPlan(), M3Options{}, "lossy",
		func(w witnessRow) string { return w.lossy })
}

// TestEngineEquivalenceNoFault: the same table, lossless column. A
// lossless run sends no async control traffic at all, so it catches a
// drift that only shows when the fault layer does not perturb timing.
func TestEngineEquivalenceNoFault(t *testing.T) {
	checkPinnedWitnesses(t, fault.Plan{Seed: chaosSeed}, M3Options{}, "lossless",
		func(w witnessRow) string { return w.lossless })
}

// TestEngineEquivalenceUncontended: the same table, uncontended
// column. The lossy plan on a mesh without link contention is the one
// tier-1 run in which Network.Send carries packets in place through
// the per-hop fault hook, so it pins the ride to the parked flight it
// replaced.
func TestEngineEquivalenceUncontended(t *testing.T) {
	checkPinnedWitnesses(t, differentialPlan(), M3Options{NoCUnlimited: true}, "uncontended",
		func(w witnessRow) string { return w.uncontended })
}

// checkPinnedWitnesses runs every tier-1 workload at n = 2 under plan
// and opt and compares its witness with one column of pinnedWitnesses.
// On a mismatch it prints the cell as the code now produces it.
func checkPinnedWitnesses(t *testing.T, plan fault.Plan, opt M3Options, column string, cell func(witnessRow) string) {
	for _, b := range workload.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := pinnedWitnesses[b.Name]
			if !ok {
				t.Fatalf("no pinned witness for workload %q", b.Name)
			}
			w, err := RunDifferential(b, 2, plan, opt)
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
	a, err := RunDifferential(b, 2, differentialPlan(), M3Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunDifferential(b, 2, differentialPlan(), M3Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("engine not self-deterministic:\n  1st: %v\n  2nd: %v", a, c)
	}
}
