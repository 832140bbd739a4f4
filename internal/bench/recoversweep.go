package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// erecoverSeed pins the crash schedule of the recovery sweep
// (docs/RECOVERY.md): the table is reproducible bit for bit.
const erecoverSeed uint64 = 0x5EC0

// erecoverBackoff is the supervisor's restart back-off for the sweep.
const erecoverBackoff sim.Time = 5000

// ERecoverCrashes are the service-crash counts swept by experiment
// E-recover.
var ERecoverCrashes = []int{0, 1, 2}

// ERecoverRow is one crash count of the availability sweep.
type ERecoverRow struct {
	Crashes     int
	RunTime     sim.Time // instance run phase (completion required)
	Goodput     float64  // crash-free run time / actual run time
	Restarts    uint64   // supervisor respawns observed
	MeanRecover sim.Time // mean cycles from crash to service ready
	Replayed    int      // journal records replayed by the last incarnation
}

// ERecoverResult is the experiment E-recover table: how availability
// degrades as the m3fs service PE is crashed repeatedly mid-run, with
// the kernel supervisor respawning the service on a spare PE and the
// journal restoring its metadata each time.
type ERecoverResult struct {
	Workload string
	Rows     []ERecoverRow
}

// ERecover runs the availability sweep: untar while the PE hosting the
// m3fs service is crashed 0..N times. Crash times and target PEs are
// derived iteratively — each run observes where the supervisor placed
// the restarted service and when it became ready, and the next row
// crashes that incarnation a quarter of a crash-free run later — so the
// whole schedule is a pure function of the seed and stays deterministic.
func ERecover() (*ERecoverResult, error) {
	b := workload.Untar()
	res := &ERecoverResult{Workload: b.Name}
	var crashes []fault.Crash
	var baseline sim.Time
	for _, n := range ERecoverCrashes {
		opt := M3Options{
			ExtraPEs: n,
			FS:       m3fs.Config{Journal: true},
		}
		if n > 0 {
			opt.FSPolicy = core.RestartPolicy{MaxRestarts: n, Backoff: erecoverBackoff}
		}
		plan := fault.Plan{Seed: erecoverSeed, Crashes: append([]fault.Crash(nil), crashes[:min(n, len(crashes))]...)}
		cr, err := Scenario{Workload: b, Instances: 1, Faults: &plan, M3Options: opt}.Run()
		if err != nil {
			return nil, fmt.Errorf("erecover %d crashes: %w", n, err)
		}
		out := cr.Outcomes[0]
		if !out.Finished {
			return nil, fmt.Errorf("erecover %d crashes: instance did not finish: %v", n, out.Err)
		}
		if got := int(cr.Kern.Stats.ServiceRestarts); got != n {
			return nil, fmt.Errorf("erecover %d crashes: %d restarts observed", n, got)
		}
		if len(cr.FSReadyAt) != n+1 {
			return nil, fmt.Errorf("erecover %d crashes: service ready %d times", n, len(cr.FSReadyAt))
		}
		row := ERecoverRow{
			Crashes:  n,
			RunTime:  out.RunTime,
			Goodput:  1,
			Restarts: cr.Kern.Stats.ServiceRestarts,
			Replayed: cr.FS.ReplayedRecords,
		}
		if baseline == 0 {
			baseline = out.RunTime
		} else {
			row.Goodput = float64(baseline) / float64(out.RunTime)
		}
		for i := 0; i < n; i++ {
			row.MeanRecover += cr.FSReadyAt[i+1] - plan.Crashes[i].At
		}
		if n > 0 {
			row.MeanRecover /= sim.Time(n)
		}
		res.Rows = append(res.Rows, row)

		// Derive the next crash from this run: target the PE the live
		// service incarnation sits on, a quarter of a crash-free run
		// after the last point at which it was known to be up.
		if pe, ok := servicePE(cr, "m3fs"); ok {
			at := cr.FSReadyAt[len(cr.FSReadyAt)-1]
			if at < out.StartAt {
				at = out.StartAt
			}
			crashes = append(crashes, fault.Crash{PE: pe, At: at + baseline/4})
		}
	}
	return res, nil
}

// servicePE locates the PE hosting the live incarnation of the named
// service VPE after a run.
func servicePE(cr *Result, name string) (int, bool) {
	for _, vpe := range cr.Kern.VPEs() {
		if vpe.Name == name && !vpe.Exited() {
			return vpe.PE.ID, true
		}
	}
	return 0, false
}

// Tables renders the sweep.
func (r *ERecoverResult) Tables() []*Table {
	t := &Table{Name: "erecover_availability", Rows: [][]string{
		{"crashes", "run_cycles", "goodput", "restarts", "mean_recover_cycles", "replayed_records"},
	}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Crashes), cyc(row.RunTime),
			fmt.Sprintf("%.4f", row.Goodput),
			fmt.Sprintf("%d", row.Restarts),
			cyc(row.MeanRecover),
			fmt.Sprintf("%d", row.Replayed),
		})
	}
	t.Title = fmt.Sprintf("E-recover: %s under repeated m3fs service crashes (seed %#x, backoff %d cycles)",
		r.Workload, erecoverSeed, erecoverBackoff)
	return []*Table{t}
}
