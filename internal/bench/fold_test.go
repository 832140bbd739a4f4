package bench

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Before the critical path painted (layer, work|wait) pairs, it booked
// every cycle to one of six categories: app, queue, noc, kernel, retry
// and shed. Each category split in place into paints at its own rank,
// so folding the paints back must give the old numbers exactly. The
// pinned vectors below are what the six-category painter reported on
// the same runs.

// parentCategory maps each paint onto its old category (app 0, queue
// 1, noc 2, kernel 3). Retry and shed were 0 on every pinned run, and
// app/wait and noc/wait are painted on none of them.
var parentCategory = map[string]int{
	"app": 0, "dtu": 1, "dtu/wait": 1, "kernel/wait": 1, "service/wait": 1,
	"noc": 2, "kernel": 3, "service": 3,
}

// foldToParent folds a blame vector onto the six old categories.
func foldToParent(t *testing.T, v []uint64) [6]uint64 {
	t.Helper()
	var f [6]uint64
	for p, c := range v {
		cat, ok := parentCategory[obs.Paint(p).String()]
		if !ok && c != 0 {
			t.Fatalf("paint %s holds %d cycles and had no old category", obs.Paint(p), c)
		}
		f[cat] += c
	}
	return f
}

func vec32(v obs.BlameVec) []uint64 {
	out := make([]uint64, len(v))
	for i, c := range v {
		out[i] = uint64(c)
	}
	return out
}

// parentQuantile is a pinned request at one quantile.
type parentQuantile struct {
	span    obs.SpanID
	blame   [6]uint64
	latency uint64
}

// parentPopulation pins one request population: its size, an FNV-1a
// hash over every request's "span latency app queue noc kernel retry
// shed" line in quantile order, and its totals.
type parentPopulation struct {
	n     int
	hash  uint64
	total [6]uint64
}

// checkPopulation folds every request of cp's population and compares
// it with the pin.
func checkPopulation(t *testing.T, cp *obs.CritPath, want parentPopulation) {
	t.Helper()
	pop := cp.Requests()
	h := fnv.New64a()
	var total [6]uint64
	for _, r := range pop {
		f := foldToParent(t, vec32(r.Blame))
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d\n", r.Span, r.Latency(), f[0], f[1], f[2], f[3], f[4], f[5])
		for i := range total {
			total[i] += f[i]
		}
	}
	got := parentPopulation{n: len(pop), hash: h.Sum64(), total: total}
	if got != want {
		t.Errorf("folded population = %+v, want %+v", got, want)
	}
	rep := cp.ReportAt(nil)
	if f := foldToParent(t, rep.Total[:]); f != want.total {
		t.Errorf("folded report total = %v, want %v", f, want.total)
	}
}

// TestBlameFoldsToParent: the tar population behind SLO_0.json (its
// totals and quantiles), both E-tail M3 populations, and every E-tail
// row, Linux included, fold back onto the six-category numbers.
func TestBlameFoldsToParent(t *testing.T) {
	t.Run("tar", func(t *testing.T) {
		b, err := workload.ByName("tar")
		if err != nil {
			t.Fatal(err)
		}
		cp := obs.NewCritPath(obs.CritPathOptions{})
		if _, err := (Scenario{Workload: b, M3Options: M3Options{Obs: obs.New(obs.Options{Sink: cp.Consume})}}).Run(); err != nil {
			t.Fatal(err)
		}
		checkPopulation(t, cp, parentPopulation{92, 0xd86850db10814a96, [6]uint64{2191, 2716, 2375, 51978, 0, 0}})
		want := []parentQuantile{
			{46, [6]uint64{0, 0, 28, 505, 0, 0}, 533},
			{85, [6]uint64{30, 40, 53, 1657, 0, 0}, 1780},
			{88, [6]uint64{30, 40, 53, 1657, 0, 0}, 1780},
		}
		for i, q := range cp.ReportAt([]float64{0.5, 0.99, 0.999}).Quantiles {
			got := parentQuantile{q.Span, foldToParent(t, vec32(q.Blame)), q.Latency}
			if got != want[i] {
				t.Errorf("p%g = %+v, want %+v", q.Q*100, got, want[i])
			}
		}
	})
	pops := map[string]parentPopulation{
		"stat": {192, 0x4d481580a29286a8, [6]uint64{0, 228516, 4835, 129600, 0, 0}},
		"read": {960, 0xf811b64d4deb5d3a, [6]uint64{17280, 1166015, 25755, 566248, 0, 0}},
	}
	for _, w := range ETailWorkloads {
		t.Run("etail/"+w.Name, func(t *testing.T) {
			cp, _, err := etailM3(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPopulation(t, cp, pops[w.Name])
		})
	}
	t.Run("etail/rows", func(t *testing.T) {
		r, err := ETail()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"stat m3 p50 2035 [0 1330 30 675 0 0]",
			"stat m3 p99 2686 [0 1983 28 675 0 0]",
			"stat lx p50 620 [0 0 0 620 0 0]",
			"stat lx p99 620 [0 0 0 620 0 0]",
			"read m3 p50 1739 [30 399 53 1257 0 0]",
			"read m3 p99 4138 [0 3466 27 645 0 0]",
			"read lx p50 930 [0 0 0 930 0 0]",
			"read lx p99 5456 [0 4096 0 1360 0 0]",
		}
		var got []string
		for _, wr := range r.Workloads {
			for _, s := range []ETailSystem{wr.M3, wr.Lx} {
				for _, q := range s.Quantiles {
					got = append(got, fmt.Sprintf("%s %s %s %d %v",
						wr.Workload, s.System, qLabel(q.Q), q.Latency, foldToParent(t, vec32(q.Blame))))
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("folded rows:\n%v\nwant\n%v", got, want)
		}
	})
}
