package bench

import (
	"errors"
	"fmt"
	"hash/fnv"
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
// measured closed-loop capacity, with the m3fs DTU's admission
// watermark armed (docs/OVERLOAD.md). The gates: goodput at 2x stays
// above 70% of capacity, refused requests fast-fail in under 10% of
// the mean admitted RTT, and the admitted p99 stays bounded by the
// watermark instead of growing with offered load.

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
	// eloadJitter decorrelates the per-client arrival schedules.
	eloadJitter = 0.2
)

// eloadRec is one client-observed operation outcome.
type eloadRec struct {
	lat     sim.Time
	outcome uint8 // 0 admitted, 1 shed (refused), 2 timeout, 3 other error
}

// ELoadPoint is the aggregated result of one load point.
type ELoadPoint struct {
	Offered  uint64
	Admitted uint64
	Shed     uint64
	// Errors counts every other outcome, a timeout included.
	Errors uint64

	// Window is the measurement window: first client start to last
	// client end. GoodputMcyc is admitted operations per million cycles
	// of that window.
	Window      sim.Time
	GoodputMcyc float64

	MeanRTT     sim.Time // admitted operations
	P99RTT      sim.Time
	MeanShedLat sim.Time // shed operations (raw fast-fail, no retries)

	// AdmitRefusals counts the requests the m3fs DTU refused.
	AdmitRefusals uint64

	// Witness digests every per-operation outcome plus the engine run
	// statistics; the determinism gate compares it across repetitions.
	Witness uint64
	Stats   RunStats
}

// runELoadPoint boots a fresh armed system and drives one load point.
// interval 0 is the closed-loop capacity probe (clients fire
// back-to-back); armed false runs the same fleet without the watermark
// (the capacity baseline measures the unarmed system).
func runELoadPoint(interval sim.Time, armed bool) (*ELoadPoint, error) {
	var opt M3Options
	if armed {
		opt.RxWatermark = eloadWatermark
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
			return f.Close()
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
	res.AdmitRefusals = r.Plat.PEs[1].DTU.Stats.OverloadRefused
	fmt.Fprintf(h, "ev=%d ft=%d ref=%d\n",
		res.Stats.ExecutedEvents, res.Stats.FinalTime, res.AdmitRefusals)
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

// Tables renders the sweep. Counts and latencies are deterministic, so
// the default diff tolerance holds them steady; the goodput gate rides
// as goodput_loss (lower is better, like every other bench metric).
func (r *ELoadResult) Tables() []*Table {
	t := &Table{Name: "eload_degradation", Rows: [][]string{
		{"load", "offered", "admitted", "shed", "goodput_loss",
			"mean_rtt_cycles", "p99_rtt_cycles", "shed_lat_cycles", "refusals"},
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
			fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%.4f", loss),
			cyc(p.MeanRTT), cyc(p.P99RTT), cyc(p.MeanShedLat),
			fmt.Sprintf("%d", p.AdmitRefusals),
		})
	}
	c := &Table{Name: "eload_capacity", Title: "E-load: capacity probe (closed loop, watermark off)", Rows: [][]string{
		{"metric", "mean_rtt_cycles", "p99_rtt_cycles"},
		{"capacity", cyc(r.Capacity.MeanRTT), cyc(r.Capacity.P99RTT)},
	}}
	t.Title = fmt.Sprintf("E-load: open-loop overload sweep, %d clients x %d stat ops (seed %#x), capacity %.1f ops/Mcyc (cycles)",
		eloadClients, eloadOps, eloadSeed, r.Capacity.GoodputMcyc)
	return []*Table{t, c}
}
