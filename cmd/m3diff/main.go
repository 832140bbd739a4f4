// Command m3diff is the differential-observability CLI: it aligns two
// run captures — standalone capture JSON files or the captures bundled
// into bench JSON by `m3bench -capture` — and attributes their cycle
// delta: per-(PE, layer, kind) profile deltas with the top span-path
// contributors, per-bucket histogram shift with quantile deltas,
// blame-category drift, and metric-by-metric changes.
//
// All reports are byte-deterministic: diffing the same two files always
// produces the same bytes, and captures themselves are byte-identical
// across the heap and calendar event queues, so a nonempty diff is a
// real behavior change, never engine noise.
//
// Usage:
//
//	m3diff old.json new.json              # text report
//	m3diff -w tar old.json new.json       # pick a workload from bench JSON
//	m3diff -json d.json old.json new.json # machine-readable report
//	m3diff -folded d.folded old.json new.json  # flamegraph difffolded
//	m3diff -selftest                      # seeded-regression self-test
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	wl := flag.String("w", "", "workload to select when an input is a bench JSON with several captures")
	top := flag.Int("top", 10, "cap the (PE, layer, kind) group table in the text report (0 = all)")
	jsonOut := flag.String("json", "", "write the machine-readable diff to this file ('-' for stdout)")
	folded := flag.String("folded", "", "write the flamegraph difffolded profile ('path old new' lines) to this file")
	selftest := flag.Bool("selftest", false, "run the attribution self-test: seed a +10% kernel dispatch-cost regression and require the kernel layer to rank first")
	flag.Parse()

	if *selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintf(os.Stderr, "m3diff: selftest: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "m3diff: need exactly two arguments: old.json new.json (or -selftest)")
		os.Exit(2)
	}
	oldCap, err := loadCapture(flag.Arg(0), *wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m3diff: %v\n", err)
		os.Exit(1)
	}
	newCap, err := loadCapture(flag.Arg(1), *wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m3diff: %v\n", err)
		os.Exit(1)
	}
	d, err := obs.DiffCaptures(oldCap, newCap)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m3diff: %v\n", err)
		os.Exit(1)
	}
	if err := d.WriteText(os.Stdout, *top); err != nil {
		fmt.Fprintf(os.Stderr, "m3diff: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(w *os.File) error { return d.WriteJSON(w) }); err != nil {
			fmt.Fprintf(os.Stderr, "m3diff: %v\n", err)
			os.Exit(1)
		}
	}
	if *folded != "" {
		if err := writeTo(*folded, func(w *os.File) error {
			return obs.WriteFoldedDiff(w, oldCap, newCap)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "m3diff: %v\n", err)
			os.Exit(1)
		}
	}
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

// writeTo writes via fn to path, or stdout for "-".
func writeTo(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// selftestWorkload is the workload the self-test captures.
const selftestWorkload = "tar"

// runSelftest is `make diff-smoke`: prove the attribution pipeline
// end to end on a seeded regression.
//
//  1. Capture the baseline workload under both engine variants
//     (serial-heap, serial-calendar) and require the capture JSON to
//     be byte-identical — the differential contract.
//  2. Re-capture with the kernel's syscall dispatch cost perturbed
//     +10% (core.CostDispatch/10 extra cycles per syscall).
//  3. Diff base vs perturbed and require the kernel to rank first:
//     top blame-drift category "kernel" and a positive kernel
//     profile-layer delta.
//  4. Render the report twice and require byte-identical output.
func runSelftest() error {
	variants := bench.EngineVariants()
	fmt.Printf("selftest: capturing %s under %d engine variants\n", selftestWorkload, len(variants))
	var base *obs.RunCapture
	var baseJSON string
	for _, v := range variants {
		c, err := bench.RunWorkloadCapture(selftestWorkload, bench.CaptureRunOptions{Engine: v.Cfg})
		if err != nil {
			return fmt.Errorf("capturing under %s: %w", v.Name, err)
		}
		js, err := captureString(c)
		if err != nil {
			return err
		}
		if base == nil {
			base, baseJSON = c, js
			continue
		}
		if js != baseJSON {
			return fmt.Errorf("capture under %s differs from %s: the differential contract is broken", v.Name, variants[0].Name)
		}
	}
	fmt.Printf("selftest: captures byte-identical across %d engines\n", len(variants))

	delta := sim.Time(core.CostDispatch) / 10
	perturbed, err := bench.RunWorkloadCapture(selftestWorkload, bench.CaptureRunOptions{DispatchCostDelta: delta})
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
	if err := d.WriteText(os.Stdout, 5); err != nil {
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

	r1, err := diffString(d, base, perturbed)
	if err != nil {
		return err
	}
	d2, err := obs.DiffCaptures(base, perturbed)
	if err != nil {
		return err
	}
	r2, err := diffString(d2, base, perturbed)
	if err != nil {
		return err
	}
	if r1 != r2 {
		return fmt.Errorf("diff report not byte-deterministic")
	}
	fmt.Printf("selftest: +%d cycles/syscall attributed to kernel (blame %s, share %.1f%% -> %.1f%%); reports byte-stable\n",
		delta, blame.Category, 100*blame.OldShare, 100*blame.NewShare)
	return nil
}

// captureString renders a capture's JSON into a string.
func captureString(c *obs.RunCapture) (string, error) {
	var sb writerBuf
	if err := c.WriteJSON(&sb); err != nil {
		return "", err
	}
	return string(sb), nil
}

// diffString renders every diff format into one string.
func diffString(d *obs.CaptureDiff, old, new *obs.RunCapture) (string, error) {
	var sb writerBuf
	if err := d.WriteText(&sb, 0); err != nil {
		return "", err
	}
	if err := d.WriteJSON(&sb); err != nil {
		return "", err
	}
	if err := obs.WriteFoldedDiff(&sb, old, new); err != nil {
		return "", err
	}
	return string(sb), nil
}

// writerBuf is a minimal io.Writer over a byte slice.
type writerBuf []byte

func (b *writerBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
