package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// cmdDiff is differential observability: it aligns two run captures,
// standalone capture JSON files or the captures that `m3bench
// -capture` bundles into bench JSON, and attributes their cycle delta:
// per-(PE, layer, kind) profile deltas with the top span-path
// contributors, per-bucket histogram shift with quantile deltas,
// blame-category drift, and metric-by-metric changes.
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
	selftest := fs.Bool("selftest", false, "run the attribution self-test: seed a +10% kernel dispatch-cost regression and require the kernel layer to rank first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *selftest {
		if err := runSelftest(w); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
		return nil
	}
	if fs.NArg() != 2 {
		return errors.New("diff: need exactly two arguments: old.json new.json (or -selftest)")
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

// selftestWorkload is the workload the self-test captures.
const selftestWorkload = "tar"

// runSelftest is `make diff-smoke`: prove the attribution pipeline
// end to end on a seeded regression.
//
//  1. Capture the baseline workload twice and require the capture JSON
//     to be byte-identical — the determinism contract.
//  2. Re-capture with the kernel's syscall dispatch cost perturbed
//     +10% (core.CostDispatch/10 extra cycles per syscall).
//  3. Diff base vs perturbed and require the kernel to rank first:
//     top blame-drift category "kernel" and a positive kernel
//     profile-layer delta.
//  4. Render the report twice and require byte-identical output.
func runSelftest(w io.Writer) error {
	fmt.Fprintf(w, "selftest: capturing %s twice\n", selftestWorkload)
	var base *obs.RunCapture
	var js [2]bytes.Buffer
	for i := range js {
		c, err := bench.RunWorkloadCapture(selftestWorkload, bench.M3Options{})
		if err != nil {
			return fmt.Errorf("capturing baseline: %w", err)
		}
		if err := c.WriteJSON(&js[i]); err != nil {
			return err
		}
		base = c
	}
	if !bytes.Equal(js[0].Bytes(), js[1].Bytes()) {
		return errors.New("two baseline captures differ: the determinism contract is broken")
	}
	fmt.Fprintln(w, "selftest: captures byte-identical")

	delta := sim.Time(core.CostDispatch) / 10
	perturbed, err := bench.RunWorkloadCapture(selftestWorkload, bench.M3Options{DispatchCostDelta: delta})
	if err != nil {
		return fmt.Errorf("capturing perturbed run: %w", err)
	}
	d, err := obs.DiffCaptures(base, perturbed)
	if err != nil {
		return err
	}
	if d.Empty() {
		return fmt.Errorf("+%d cycles/syscall perturbation produced an empty diff", delta)
	}
	if err := d.WriteText(w, 5); err != nil {
		return err
	}

	blame, ok := d.TopBlame()
	if !ok || blame.Category != "kernel" {
		return fmt.Errorf("top blame drift = %+v (ok=%v), want category kernel", blame, ok)
	}
	kernelGrew := false
	for _, l := range d.Layers {
		if l.Layer == "kernel" && l.Delta() > 0 {
			kernelGrew = true
		}
	}
	if !kernelGrew {
		return fmt.Errorf("kernel profile layer did not grow: %+v", d.Layers)
	}

	r1, err := diffBytes(d, base, perturbed)
	if err != nil {
		return err
	}
	d2, err := obs.DiffCaptures(base, perturbed)
	if err != nil {
		return err
	}
	r2, err := diffBytes(d2, base, perturbed)
	if err != nil {
		return err
	}
	if !bytes.Equal(r1, r2) {
		return errors.New("diff report not byte-deterministic")
	}
	fmt.Fprintf(w, "selftest: +%d cycles/syscall attributed to kernel (blame %s, share %.1f%% -> %.1f%%); reports byte-stable\n",
		delta, blame.Category, 100*blame.OldShare, 100*blame.NewShare)
	return nil
}

// diffBytes renders every diff format into one buffer.
func diffBytes(d *obs.CaptureDiff, old, new *obs.RunCapture) ([]byte, error) {
	var b bytes.Buffer
	if err := d.WriteText(&b, 0); err != nil {
		return nil, err
	}
	if err := d.WriteJSON(&b); err != nil {
		return nil, err
	}
	if err := obs.WriteFoldedDiff(&b, old, new); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
