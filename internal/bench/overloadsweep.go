package bench

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/kif"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Experiment E-load: graceful degradation under open-loop overload.
// A fleet of clients fires m3fs metadata operations (stat) on
// generator-scheduled arrival times — open loop, so offered load does
// not slow down when the service does — at 0.5x, 1x, and 2x of the
// measured closed-loop capacity, with the full overload stack armed
// (deadline propagation, admission watermark, kernel shed controller,
// client retry budgets; docs/OVERLOAD.md). The gates: goodput at 2x
// stays above 70% of capacity, shed requests fast-fail in under 10% of
// the mean admitted RTT, and the admitted p99 stays bounded by the
// admission watermark instead of growing with offered load.

const (
	// eloadSeed pins the arrival schedules (per-client jitter streams).
	eloadSeed uint64 = 0xE10AD
	// eloadClients is the size of the client fleet.
	eloadClients = 8
	// eloadOps is the per-client operation count at every load point.
	eloadOps = 64
	// eloadWatermark is the admission watermark on the m3fs PE: requests
	// arriving with this many messages already queued are refused.
	eloadWatermark = 4
	// eloadDeadline is the per-call cycle budget stamped into headers.
	// Generous on purpose: the steady-state sweep demonstrates admission
	// control and shedding; tight-deadline expiry is the chaos tier's
	// job (TestOverloadDeadline* in overload_test.go).
	eloadDeadline sim.Time = 1 << 17
	// eloadJitter decorrelates the per-client arrival schedules.
	eloadJitter = 0.2
)

// ELoadSpec is the harness overload policy of the sweep (exported so
// the chaos tests run the same configuration).
func ELoadSpec() *OverloadSpec {
	return &OverloadSpec{
		CallDeadline: eloadDeadline,
		RxWatermark:  eloadWatermark,
		Shed: overload.ShedConfig{
			LowWatermark:  eloadWatermark + 2,
			HighWatermark: eloadWatermark + 6,
		},
		Breaker: overload.BreakerConfig{},
	}
}

// eloadRec is one client-observed operation outcome.
type eloadRec struct {
	lat     sim.Time
	outcome uint8 // 0 admitted, 1 shed (refused), 2 expired/timeout, 3 other error
}

// ELoadPoint is the aggregated result of one load point.
type ELoadPoint struct {
	Offered  uint64
	Admitted uint64
	Shed     uint64
	Expired  uint64
	Errors   uint64

	// Window is the measurement window: first client start to last
	// client end. GoodputMcyc is admitted operations per million cycles
	// of that window.
	Window      sim.Time
	GoodputMcyc float64

	MeanRTT     sim.Time // admitted operations
	P99RTT      sim.Time
	MeanShedLat sim.Time // shed operations (raw fast-fail, no retries)

	// Service/kernel-side counters after the run.
	AdmitRefusals uint64
	DeadlineDrops uint64
	KernelShed    uint64
	BreakerOpens  uint64

	// Witness digests every per-operation outcome plus the engine run
	// statistics; the determinism gate compares it across repetitions.
	Witness uint64
	Stats   RunStats
}

// runELoadPoint boots a fresh armed system and drives one load point.
// interval 0 is the closed-loop capacity probe (clients fire
// back-to-back); armed false runs the same fleet with every overload
// knob off (the capacity baseline measures the unarmed system).
func runELoadPoint(interval sim.Time, armed bool) (*ELoadPoint, error) {
	var opt M3Options
	if armed {
		opt.Overload = ELoadSpec()
	}
	recs := make([][]eloadRec, eloadClients)
	r, err := fleet{
		clients: eloadClients,
		setup: func(os *workload.M3OS) error {
			f, err := os.Open("/probe", workload.Write|workload.Create|workload.Trunc)
			if err != nil {
				return err
			}
			if _, err := f.Write(make([]byte, 64)); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			// The driver measures raw fast-fail latency and counts every
			// arrival exactly once: client-internal retries off.
			os.FS.ShedRetryAttempts = -1
			return nil
		},
		arrivals: func(k int) *overload.Gen {
			return overload.NewGen(overload.BurstConfig{
				Seed:     eloadSeed,
				Shape:    overload.ShapeConstant,
				Interval: interval,
				Count:    eloadOps,
				Jitter:   eloadJitter,
			}, uint64(k))
		},
		closed: interval == 0,
		op: func(k, _ int, os *workload.M3OS) error {
			ctx := os.Env.Ctx
			t0 := ctx.Now()
			_, serr := os.FS.Stat(os.Prefix + "/probe")
			rec := eloadRec{lat: ctx.Now() - t0}
			switch {
			case serr == nil:
			case errors.Is(serr, kif.ErrOverload):
				rec.outcome = 1
			case errors.Is(serr, kif.ErrTimeout):
				rec.outcome = 2
			default:
				rec.outcome = 3
			}
			recs[k] = append(recs[k], rec)
			return nil
		},
	}.run(opt)
	if err != nil {
		return nil, err
	}
	res := &ELoadPoint{Stats: r.Stats}
	h := fnv.New64a()
	var sumRTT, sumShed sim.Time
	var admittedLats []sim.Time
	var minStart, maxEnd sim.Time
	for ci := range recs {
		o := r.Outcomes[ci]
		if ci == 0 || o.StartAt < minStart {
			minStart = o.StartAt
		}
		if o.EndAt > maxEnd {
			maxEnd = o.EndAt
		}
		for i, r := range recs[ci] {
			fmt.Fprintf(h, "%d %d %d %d\n", ci, i, r.outcome, r.lat)
			res.Offered++
			switch r.outcome {
			case 0:
				res.Admitted++
				sumRTT += r.lat
				admittedLats = append(admittedLats, r.lat)
			case 1:
				res.Shed++
				sumShed += r.lat
			case 2:
				res.Expired++
			default:
				res.Errors++
			}
		}
	}
	res.Window = maxEnd - minStart
	if res.Window > 0 {
		res.GoodputMcyc = float64(res.Admitted) / float64(res.Window) * 1e6
	}
	if res.Admitted > 0 {
		res.MeanRTT = sumRTT / sim.Time(res.Admitted)
		sort.Slice(admittedLats, func(i, j int) bool { return admittedLats[i] < admittedLats[j] })
		res.P99RTT = admittedLats[(len(admittedLats)-1)*99/100]
	}
	if res.Shed > 0 {
		res.MeanShedLat = sumShed / sim.Time(res.Shed)
	}
	fsDTU := r.Plat.PEs[1].DTU
	res.AdmitRefusals = fsDTU.Stats.OverloadRefused
	res.DeadlineDrops = fsDTU.Stats.DeadlineDrops
	res.KernelShed = r.Kern.Stats.CallsShed
	res.BreakerOpens = r.Kern.Stats.BreakerRejects
	fmt.Fprintf(h, "ev=%d ft=%d ref=%d dd=%d ks=%d br=%d\n",
		res.Stats.ExecutedEvents, res.Stats.FinalTime,
		res.AdmitRefusals, res.DeadlineDrops, res.KernelShed, res.BreakerOpens)
	res.Witness = h.Sum64()
	return res, nil
}

// ELoadCapacity measures the closed-loop, unarmed capacity baseline.
func ELoadCapacity() (*ELoadPoint, error) {
	return runELoadPoint(0, false)
}

// ELoadIntervalFor converts a capacity measurement and an offered-load
// multiplier into the per-client arrival interval: the fleet together
// offers mult times the measured capacity.
func ELoadIntervalFor(capacity *ELoadPoint, mult float64) sim.Time {
	opsPerCycle := float64(capacity.Admitted) / float64(capacity.Window)
	return sim.Time(float64(eloadClients) / (mult * opsPerCycle))
}

// ELoadRow is one offered-load point of the sweep table.
type ELoadRow struct {
	Label string
	Mult  float64
	Point *ELoadPoint
}

// ELoadResult is the E-load experiment output.
type ELoadResult struct {
	Capacity *ELoadPoint
	Rows     []ELoadRow
}

// ELoadMults are the offered-load multipliers of the sweep.
var ELoadMults = []float64{0.5, 1, 2}

// ELoad runs the sweep: capacity probe, then the armed open-loop
// points.
func ELoad() (*ELoadResult, error) {
	capacity, err := ELoadCapacity()
	if err != nil {
		return nil, fmt.Errorf("eload capacity: %w", err)
	}
	if capacity.Admitted != uint64(eloadClients*eloadOps) {
		return nil, fmt.Errorf("eload capacity: only %d/%d ops admitted in the unarmed baseline", capacity.Admitted, eloadClients*eloadOps)
	}
	res := &ELoadResult{Capacity: capacity}
	for _, mult := range ELoadMults {
		interval := ELoadIntervalFor(capacity, mult)
		p, err := runELoadPoint(interval, true)
		if err != nil {
			return nil, fmt.Errorf("eload x%g: %w", mult, err)
		}
		res.Rows = append(res.Rows, ELoadRow{Label: fmt.Sprintf("x%g", mult), Mult: mult, Point: p})
	}
	return res, nil
}

// Print writes the sweep table.
func (r *ELoadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "E-load: open-loop overload sweep, %d clients x %d stat ops (seed %#x)\n",
		eloadClients, eloadOps, eloadSeed)
	fmt.Fprintf(w, "  capacity (closed loop, overload off): %.1f ops/Mcyc, mean rtt %d cycles\n",
		r.Capacity.GoodputMcyc, r.Capacity.MeanRTT)
	tw := newTable(w, "offered", "admitted", "shed", "expired", "goodput/Mcyc", "vs capacity",
		"mean rtt", "p99 rtt", "shed latency")
	for _, row := range r.Rows {
		p := row.Point
		tw.row(row.Label, fmt.Sprintf("%d/%d", p.Admitted, p.Offered),
			fmt.Sprintf("%d", p.Shed), fmt.Sprintf("%d", p.Expired),
			fmt.Sprintf("%.1f", p.GoodputMcyc),
			fmt.Sprintf("%.0f%%", 100*p.GoodputMcyc/r.Capacity.GoodputMcyc),
			cyc(p.MeanRTT), cyc(p.P99RTT), cyc(p.MeanShedLat))
	}
	tw.flush()
}

// CSV renders the sweep. Counts and latencies are deterministic, so
// the default diff tolerance holds them steady; the goodput gate rides
// as goodput_loss (lower is better, like every other bench metric).
func (r *ELoadResult) CSV() []*CSVTable {
	t := &CSVTable{Name: "eload_degradation", Rows: [][]string{
		{"load", "offered", "admitted", "shed", "expired", "goodput_loss",
			"mean_rtt_cycles", "p99_rtt_cycles", "shed_lat_cycles",
			"refusals", "deadline_drops", "kernel_shed"},
	}}
	for _, row := range r.Rows {
		p := row.Point
		loss := 1 - p.GoodputMcyc/r.Capacity.GoodputMcyc
		if loss < 0 {
			loss = 0
		}
		t.Rows = append(t.Rows, []string{
			row.Label,
			fmt.Sprintf("%d", p.Offered), fmt.Sprintf("%d", p.Admitted),
			fmt.Sprintf("%d", p.Shed), fmt.Sprintf("%d", p.Expired),
			fmt.Sprintf("%.4f", loss),
			cyc(p.MeanRTT), cyc(p.P99RTT), cyc(p.MeanShedLat),
			fmt.Sprintf("%d", p.AdmitRefusals),
			fmt.Sprintf("%d", p.DeadlineDrops),
			fmt.Sprintf("%d", p.KernelShed),
		})
	}
	c := &CSVTable{Name: "eload_capacity", Rows: [][]string{
		{"metric", "mean_rtt_cycles", "p99_rtt_cycles"},
		{"capacity", cyc(r.Capacity.MeanRTT), cyc(r.Capacity.P99RTT)},
	}}
	return []*CSVTable{t, c}
}
