package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

// cmdDiff is differential observability: it aligns two run captures,
// standalone capture JSON files or the captures that `m3bench
// -capture` bundles into bench JSON, and attributes their cycle delta:
// per-(PE, layer, kind) profile deltas with the top span-path
// contributors, one per-layer table of profile and critical-path
// cycles, per-bucket histogram shift with quantile deltas, and
// metric-by-metric changes.
//
// All reports are byte-deterministic, and two captures of the same run
// are byte-identical, so a nonempty diff is a real behavior change,
// never run noise.
func cmdDiff(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	wl := fs.String("w", "", "workload to select when an input is a bench JSON with several captures")
	top := fs.Int("top", 10, "cap the (PE, layer, kind) group table in the text report (0 = all)")
	jsonOut := fs.String("json", "", "write the machine-readable diff to this file ('-' for stdout)")
	folded := fs.String("folded", "", "write the flamegraph difffolded profile ('path old new' lines) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("diff: need exactly two arguments: old.json new.json")
	}
	oldCap, err := loadCapture(fs.Arg(0), *wl)
	if err != nil {
		return err
	}
	newCap, err := loadCapture(fs.Arg(1), *wl)
	if err != nil {
		return err
	}
	d, err := obs.DiffCaptures(oldCap, newCap)
	if err != nil {
		return err
	}
	if err := d.WriteText(w, *top); err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := writeOut(w, *jsonOut, "wrote "+*jsonOut, d.WriteJSON); err != nil {
			return err
		}
	}
	if *folded != "" {
		return writeOut(w, *folded, "wrote "+*folded, func(f io.Writer) error {
			return obs.WriteFoldedDiff(f, oldCap, newCap)
		})
	}
	return nil
}

// loadCapture reads path as a standalone capture or as a bench JSON
// carrying captures; wl selects among several bundled captures.
func loadCapture(path, wl string) (*obs.RunCapture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if c, err := obs.ReadCaptureJSON(data); err == nil {
		if wl != "" && c.Workload != wl {
			return nil, fmt.Errorf("%s: capture is of workload %q, not %q", path, c.Workload, wl)
		}
		return c, nil
	}
	f, err := bench.ReadBenchJSON(data)
	if err != nil {
		return nil, fmt.Errorf("%s: neither a run capture nor a bench JSON: %w", path, err)
	}
	if len(f.Captures) == 0 {
		return nil, fmt.Errorf("%s: bench JSON carries no captures (rerun with m3bench -capture)", path)
	}
	if wl == "" {
		if len(f.Captures) == 1 {
			return f.Captures[0], nil
		}
		var names []string
		for _, c := range f.Captures {
			names = append(names, c.Workload)
		}
		return nil, fmt.Errorf("%s: %d captures (%v); pick one with -w", path, len(f.Captures), names)
	}
	if c := bench.FindCapture(f, wl); c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("%s: no capture of workload %q", path, wl)
}
