package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// efaultSeed pins the fault schedule of the sweep: the table is
// reproducible bit for bit (docs/FAULTS.md).
const efaultSeed uint64 = 0xFA17

// efaultRetries is the per-transfer retry budget for the sweep —
// deliberately above the DTU default so even the 5% point degrades
// gracefully instead of aborting.
const efaultRetries = 10

// EFaultRates are the per-link packet-loss probabilities swept by
// experiment E-fault.
var EFaultRates = []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}

// EFaultRow is one loss rate of the degradation sweep.
type EFaultRow struct {
	DropRate    float64
	RunTime     sim.Time // instance run phase (all instances finished)
	Slowdown    float64  // vs. the lossless row
	Retransmits uint64
	Aborts      uint64
	Dropped     uint64 // packets the NoC fault layer removed
}

// EFaultResult is the experiment E-fault table: how gracefully the
// untar workload degrades as the NoC loses packets, with the DTU's
// retransmission layer absorbing the loss.
type EFaultResult struct {
	Workload string
	Rows     []EFaultRow
}

// EFault runs the degradation sweep: untar under increasing per-link
// packet loss, same seed at every point, completion required.
func EFault() (*EFaultResult, error) {
	b := workload.Untar()
	res := &EFaultResult{Workload: b.Name}
	for _, rate := range EFaultRates {
		plan := fault.Plan{
			Seed:       efaultSeed,
			DropRate:   rate,
			MaxRetries: efaultRetries,
		}
		cr, err := Scenario{Workload: b, Instances: 1, Faults: &plan}.Run()
		if err != nil {
			return nil, fmt.Errorf("efault rate %g: %w", rate, err)
		}
		out := cr.Outcomes[0]
		if !out.Finished {
			return nil, fmt.Errorf("efault rate %g: instance did not finish: %v", rate, out.Err)
		}
		row := EFaultRow{
			DropRate:    rate,
			RunTime:     out.RunTime,
			Retransmits: cr.Inj.Retransmits(),
			Aborts:      cr.Inj.Aborts(),
			Dropped:     cr.Plat.Net.PacketsDropped,
		}
		if base := res.Rows; len(base) > 0 && base[0].RunTime > 0 {
			row.Slowdown = float64(row.RunTime) / float64(base[0].RunTime)
		} else {
			row.Slowdown = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Tables renders the sweep.
func (r *EFaultResult) Tables() []*Table {
	t := &Table{Name: "efault_degradation", Rows: [][]string{
		{"drop_rate", "run_cycles", "slowdown", "packets_dropped", "retransmits", "aborts"},
	}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", row.DropRate), cyc(row.RunTime),
			fmt.Sprintf("%.4f", row.Slowdown),
			fmt.Sprintf("%d", row.Dropped),
			fmt.Sprintf("%d", row.Retransmits),
			fmt.Sprintf("%d", row.Aborts),
		})
	}
	t.Title = fmt.Sprintf("E-fault: %s under per-link packet loss (seed %#x, %d retries)",
		r.Workload, efaultSeed, efaultRetries)
	return []*Table{t}
}
