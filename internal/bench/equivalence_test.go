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
		`events=6353 final=159557 obs=a06653739ffe868b(1726) metrics=d170fe71101b8901 outcomes="chaos0 fin=true err=\"\" start=36091 end=157284;chaos1 fin=true err=\"\" start=36091 end=151843;"`,
		`events=6227 final=137556 obs=2deb61524aee294a(1685) metrics=53eff8b3bf87b871 outcomes="chaos0 fin=true err=\"\" start=26189 end=135283;chaos1 fin=true err=\"\" start=26189 end=132274;"`,
		`events=4966 final=148327 obs=3d33c7a471a82dec(1735) metrics=5a6f96385f99d26e outcomes="chaos0 fin=true err=\"\" start=25633 end=146054;chaos1 fin=true err=\"\" start=25633 end=138780;"`,
	},
	"tar": {
		`events=33616 final=906030 obs=c943a11018a6e445(6749) metrics=ce7cb00dabcd3ae7 outcomes="chaos0 fin=true err=\"\" start=298838 end=903757;chaos1 fin=true err=\"\" start=298838 end=860061;"`,
		`events=32661 final=769754 obs=454c337a39719777(6501) metrics=24494ab7f4b92cd8 outcomes="chaos0 fin=true err=\"\" start=253808 end=766615;chaos1 fin=true err=\"\" start=253808 end=767484;"`,
		`events=26987 final=883794 obs=e4e92d644590875f(6695) metrics=1ff1d1d6c060d1e0 outcomes="chaos0 fin=true err=\"\" start=295828 end=881521;chaos1 fin=true err=\"\" start=295828 end=852925;"`,
	},
	"untar": {
		`events=55070 final=1446786 obs=2d9656261fe88788(10862) metrics=d72d8080ebdb31d3 outcomes="chaos0 fin=true err=\"\" start=877212 end=1444513;chaos1 fin=true err=\"\" start=877212 end=1435187;"`,
		`events=53668 final=1273935 obs=a8518b3ab75ba613(10521) metrics=9165307365604ab5 outcomes="chaos0 fin=true err=\"\" start=760520 end=1270796;chaos1 fin=true err=\"\" start=760520 end=1271665;"`,
		`events=44282 final=1483229 obs=2b98abfff2ad1590(10863) metrics=9f12220aab560799 outcomes="chaos0 fin=true err=\"\" start=887186 end=1480956;chaos1 fin=true err=\"\" start=887186 end=1434384;"`,
	},
	"find": {
		`events=13851 final=442004 obs=ea718dcd9bdc4120(6926) metrics=2fefdbf0b3c6fe52 outcomes="chaos0 fin=true err=\"\" start=267793 end=434167;chaos1 fin=true err=\"\" start=267793 end=439734;"`,
		`events=13506 final=395902 obs=8cb9faa0d9200a7e(6739) metrics=69b159131280e0dc outcomes="chaos0 fin=true err=\"\" start=229114 end=391852;chaos1 fin=true err=\"\" start=229114 end=393632;"`,
		`events=11697 final=439066 obs=258dd3c97939ac0f(6876) metrics=e879a5257853ce97 outcomes="chaos0 fin=true err=\"\" start=267241 end=435617;chaos1 fin=true err=\"\" start=267241 end=436796;"`,
	},
	"sqlite": {
		`events=2410 final=2644145 obs=f6bf4c81326432cc(907) metrics=f8d6c9425fe7cecc outcomes="chaos0 fin=true err=\"\" start=7058 end=2636697;chaos1 fin=true err=\"\" start=7058 end=2638166;"`,
		`events=2291 final=2632939 obs=7b76f1454c052833(847) metrics=9690c0991110f0c2 outcomes="chaos0 fin=true err=\"\" start=4345 end=2628704;chaos1 fin=true err=\"\" start=4345 end=2630669;"`,
		`events=1953 final=2637810 obs=73fc1b4877a1e561(867) metrics=11bef14e9579171c outcomes="chaos0 fin=true err=\"\" start=6398 end=2631926;chaos1 fin=true err=\"\" start=6398 end=2635540;"`,
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
