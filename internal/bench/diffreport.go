package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Regression attribution: when the bench gate goes red, explain it.
// Attribute pairs each regression with the capture diff of its
// experiment's workload (CaptureWorkloads), producing the
// machine-readable DiffReport ci.sh retains as
// artifacts/diff-report.json and the per-metric attribution text
// `m3bench -diff` appends under its REGRESSION lines. With no captures
// in one of the files the report degrades gracefully: the regressions
// are still listed, the absent workloads are named.

// DiffReportSchema versions the diff-report JSON layout.
const DiffReportSchema = 1

// Attribution explains the regressions mapped to one captured
// workload via the workload's capture diff.
type Attribution struct {
	Workload string `json:"workload"`
	// Experiments are the regressed experiments this workload
	// represents, in first-regression order.
	Experiments []string `json:"experiments"`
	// Metrics are the regressed metric keys ("exp:metric").
	Metrics []string `json:"metrics"`
	// Summary is the diff's one-line headline.
	Summary string `json:"summary"`
	// Diff is the full capture alignment.
	Diff *obs.CaptureDiff `json:"diff"`
}

// DiffReport is the machine-readable explanation of one bench diff.
type DiffReport struct {
	Schema      int          `json:"schema"`
	Regressions []Regression `json:"regressions"`
	Notes       []string     `json:"notes,omitempty"`
	// Attributions hold one capture diff per regressed workload, in
	// workload-name order.
	Attributions []*Attribution `json:"attributions,omitempty"`
	// MissingCaptures names workloads wanted for attribution but not
	// captured in both files (rerun with `m3bench -capture`).
	MissingCaptures []string `json:"missing_captures,omitempty"`
}

// Attribute builds the diff report: every regression, joined with the
// capture diff of its experiment's workload where both files carry
// that capture.
func Attribute(d *BenchDiff, old, new *BenchFile) (*DiffReport, error) {
	rep := &DiffReport{
		Schema:      DiffReportSchema,
		Regressions: d.Regressions,
		Notes:       d.Notes,
	}
	byWorkload := map[string]*Attribution{}
	missing := map[string]bool{}
	var order []string
	for _, r := range d.Regressions {
		w, ok := CaptureWorkloads[r.Exp]
		if !ok {
			continue
		}
		a, seen := byWorkload[w]
		if !seen {
			oc, nc := FindCapture(old, w), FindCapture(new, w)
			if oc == nil || nc == nil {
				if !missing[w] {
					missing[w] = true
					rep.MissingCaptures = append(rep.MissingCaptures, w)
				}
				continue
			}
			cd, err := obs.DiffCaptures(oc, nc)
			if err != nil {
				return nil, fmt.Errorf("bench: attributing workload %s: %w", w, err)
			}
			a = &Attribution{Workload: w, Summary: cd.Summary(), Diff: cd}
			byWorkload[w] = a
			order = append(order, w)
		} else if a == nil {
			continue
		}
		if len(a.Experiments) == 0 || a.Experiments[len(a.Experiments)-1] != r.Exp {
			dup := false
			for _, e := range a.Experiments {
				if e == r.Exp {
					dup = true
					break
				}
			}
			if !dup {
				a.Experiments = append(a.Experiments, r.Exp)
			}
		}
		a.Metrics = append(a.Metrics, r.Key())
	}
	sort.Strings(order)
	sort.Strings(rep.MissingCaptures)
	for _, w := range order {
		rep.Attributions = append(rep.Attributions, byWorkload[w])
	}
	return rep, nil
}

// attributionTopGroups caps the per-workload group table in the text
// rendering; the JSON report always carries the full diff.
const attributionTopGroups = 5

// WriteText renders the attribution sections: one line per regressed
// metric pointing at its workload diff, then each workload's capture
// diff once.
func (r *DiffReport) WriteText(w io.Writer) error {
	pr := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	byWorkload := map[string]*Attribution{}
	for _, a := range r.Attributions {
		byWorkload[a.Workload] = a
	}
	for _, reg := range r.Regressions {
		wl := CaptureWorkloads[reg.Exp]
		a := byWorkload[wl]
		switch {
		case a != nil:
			if err := pr("attribution %s: %s — %s\n", reg.Key(), reg.Delta(), a.Summary); err != nil {
				return err
			}
		case wl != "":
			if err := pr("attribution %s: %s — no capture of workload %s in both files (rerun with m3bench -capture)\n",
				reg.Key(), reg.Delta(), wl); err != nil {
				return err
			}
		default:
			if err := pr("attribution %s: %s — experiment has no capture workload\n", reg.Key(), reg.Delta()); err != nil {
				return err
			}
		}
	}
	for _, a := range r.Attributions {
		if err := pr("workload %s (regressed: %s):\n", a.Workload, joinKeys(a.Metrics)); err != nil {
			return err
		}
		if err := a.Diff.WriteText(w, attributionTopGroups); err != nil {
			return err
		}
	}
	return nil
}

// joinKeys renders a key list compactly.
func joinKeys(keys []string) string {
	const max = 6
	s := ""
	for i, k := range keys {
		if i == max {
			return fmt.Sprintf("%s, and %d more", s, len(keys)-max)
		}
		if i > 0 {
			s += ", "
		}
		s += k
	}
	return s
}

// WriteJSON renders the report as indented JSON with a trailing
// newline.
func (r *DiffReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
