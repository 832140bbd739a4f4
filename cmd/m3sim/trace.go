package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// window is the [-since, -until) cycle window that trace and show
// filter by; -until 0 means the end of the run.
type window struct{ since, until uint64 }

// windowFlags registers -since and -until on fs; what names the
// filtered items and clock the cycle they are placed at.
func windowFlags(fs *flag.FlagSet, what, clock string) *window {
	win := &window{}
	fs.Uint64Var(&win.since, "since", 0, fmt.Sprintf("keep only %s at/after this %s", what, clock))
	fs.Uint64Var(&win.until, "until", 0, fmt.Sprintf("keep only %s before this %s (0 = end)", what, clock))
	return win
}

// check rejects an empty window; callers run it before any work.
func (win *window) check() error {
	if win.until != 0 && win.until <= win.since {
		return fmt.Errorf("empty cycle window: -until %d is not after -since %d", win.until, win.since)
	}
	return nil
}

func (win *window) set() bool { return win.since > 0 || win.until > 0 }

func (win *window) contains(at uint64) bool {
	return at >= win.since && (win.until == 0 || at < win.until)
}

func (win *window) String() string {
	if win.until == 0 {
		return fmt.Sprintf("[%d, end)", win.since)
	}
	return fmt.Sprintf("[%d, %d)", win.since, win.until)
}

// cmdTrace runs the scenario with the structured tracer armed and
// writes the event stream as Chrome-trace/Perfetto JSON (open it in
// chrome://tracing or ui.perfetto.dev), or as text lines with -text.
// -span keeps one request's span tree, pairing with the exemplar span
// IDs that slo prints; -since/-until keep a simulated-cycle window,
// pairing with the cycle figures a capture diff flags.
func cmdTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	scenario := scenarioFlags(fs)
	out := fs.String("o", "", "output JSON file (default <workload>.json, '-' for stdout)")
	span := fs.Uint64("span", 0, "keep only this request's span tree (0 = all)")
	text := fs.Bool("text", false, "print events as text lines instead of writing Perfetto JSON")
	win := windowFlags(fs, "events", "simulated cycle")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := win.check(); err != nil {
		return err
	}
	sc, err := scenario()
	if err != nil {
		return err
	}
	var events []obs.Event
	sc.Obs = obs.New(obs.Options{Sink: func(ev obs.Event) {
		if (*span == 0 || ev.Span == obs.SpanID(*span)) && win.contains(uint64(ev.At)) {
			events = append(events, ev)
		}
	}})
	r, err := sc.Run()
	if err != nil {
		return err
	}
	switch {
	case len(events) > 0:
	case *span != 0:
		return fmt.Errorf("no events carry span %d in cycle window %s", *span, win)
	case win.set():
		return fmt.Errorf("no events in cycle window %s", win)
	}
	cycles := r.Outcomes[0].RunTime
	if *text {
		for _, ev := range events {
			fmt.Fprintln(w, ev)
		}
		fmt.Fprintf(w, "%d structured events (%d simulated cycles)\n", len(events), cycles)
		return nil
	}
	path := *out
	if path == "" {
		path = sc.Workload.Name + ".json"
	}
	return writeOut(w, path,
		fmt.Sprintf("exported %d structured events (%d simulated cycles) to %s", len(events), cycles, path),
		func(f io.Writer) error { return obs.WritePerfetto(f, events) })
}

// cmdRecord records the scenario's workload as a trace of OS
// operations on one OS model, the paper's benchmark methodology
// (§5.6): record on one system, store, replay on the other.
func cmdRecord(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	scenario := scenarioFlags(fs)
	osName := fs.String("os", "linux", "system to record on: linux or m3")
	out := fs.String("o", "", "output trace file (default <workload>.trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := scenario()
	if err != nil {
		return err
	}
	if sc.Instances > 0 {
		return errors.New("record: a trace holds one instance; drop -n")
	}
	var tr *trace.Trace
	b := sc.Workload
	sc.Workload.Run = func(os workload.OS) error {
		rec := trace.NewRecorder(os)
		if err := b.Run(rec); err != nil {
			return err
		}
		tr = rec.T
		return nil
	}
	cycles, err := runOn(*osName, sc)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = b.Name + ".trace"
	}
	return writeOut(w, path,
		fmt.Sprintf("recorded %d operations (%d simulated cycles) to %s", tr.Len(), cycles, path),
		func(f io.Writer) error {
			_, err := f.Write(tr.Marshal())
			return err
		})
}

// cmdReplay replays a recorded trace on one OS model; the workload's
// Setup prepares the filesystem it expects.
func cmdReplay(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	scenario := scenarioFlags(fs)
	in := fs.String("i", "", "trace file")
	osName := fs.String("os", "m3", "system to replay on: linux or m3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := readTrace(*in)
	if err != nil {
		return err
	}
	sc, err := scenario()
	if err != nil {
		return err
	}
	sc.Workload.Run = func(os workload.OS) error { return trace.Replay(os, tr) }
	cycles, err := runOn(*osName, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d operations on %s in %d simulated cycles\n", tr.Len(), *osName, cycles)
	return nil
}

// runOn runs sc's workload on the named OS model and returns the
// simulated cycles of the first instance's run phase. The Linux model
// runs one instance of the workload alone; the other scenario flags
// apply to M3.
func runOn(osName string, sc bench.Scenario) (sim.Time, error) {
	switch osName {
	case "linux":
		bd, err := bench.RunLx(sc.Workload, linuxos.ProfileXtensa, false)
		return bd.Total, err
	case "m3":
		r, err := sc.Run()
		if err != nil {
			return 0, err
		}
		return r.Outcomes[0].RunTime, nil
	}
	return 0, fmt.Errorf("unknown -os %q (want linux or m3)", osName)
}

// readTrace loads the trace file named by -i.
func readTrace(path string) (*trace.Trace, error) {
	if path == "" {
		return nil, errors.New("-i required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.Unmarshal(data)
}

// cmdShow prints a recorded trace's records and a per-kind summary.
func cmdShow(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	in := fs.String("i", "", "trace file")
	limit := fs.Int("n", 30, "records to print (0 = all)")
	win := windowFlags(fs, "records", "cumulative compute-cycle offset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := win.check(); err != nil {
		return err
	}
	tr, err := readTrace(*in)
	if err != nil {
		return err
	}
	// Trace records carry no timestamps; the cumulative compute-cycle
	// offset before each record is the deterministic window proxy a
	// diff-flagged cycle range maps onto. I/O records ride at the
	// offset their predecessors accumulated.
	if win.set() {
		var at uint64
		kept := make([]trace.Record, 0, len(tr.Records))
		for _, r := range tr.Records {
			inWindow := win.contains(at)
			if r.Kind == trace.KCompute {
				at += r.Cycles
			}
			if inWindow {
				kept = append(kept, r)
			}
		}
		fmt.Fprintf(w, "%d of %d records in compute-cycle window %s\n", len(kept), tr.Len(), win)
		tr = &trace.Trace{Records: kept}
	} else {
		fmt.Fprintf(w, "%d records\n", tr.Len())
	}
	for i, r := range tr.Records {
		if *limit > 0 && i >= *limit {
			fmt.Fprintf(w, "... %d more\n", tr.Len()-i)
			break
		}
		switch r.Kind {
		case trace.KCompute:
			fmt.Fprintf(w, "%5d  compute %d cycles\n", i, r.Cycles)
		case trace.KRead, trace.KWrite:
			fmt.Fprintf(w, "%5d  %-8s fd=%d size=%d\n", i, r.Kind, r.FD, r.Size)
		case trace.KCopyRange:
			fmt.Fprintf(w, "%5d  copyrange fd=%d<-fd=%d size=%d\n", i, r.FD, r.SrcFD, r.Size)
		case trace.KSeek:
			fmt.Fprintf(w, "%5d  seek fd=%d off=%d whence=%d\n", i, r.FD, r.Off, r.Whence)
		case trace.KClose:
			fmt.Fprintf(w, "%5d  close fd=%d\n", i, r.FD)
		default:
			fmt.Fprintf(w, "%5d  %-8s %s\n", i, r.Kind, r.Path)
		}
	}
	showSummary(w, tr)
	return nil
}

// showSummary prints the per-kind footer: record counts in kind-name
// order plus the trace's aggregate compute cycles and I/O volume.
func showSummary(w io.Writer, tr *trace.Trace) {
	counts := make(map[trace.Kind]int)
	var compute, read, written uint64
	for _, r := range tr.Records {
		counts[r.Kind]++
		switch r.Kind {
		case trace.KCompute:
			compute += r.Cycles
		case trace.KRead:
			read += uint64(r.Size)
		case trace.KWrite:
			written += uint64(r.Size)
		case trace.KCopyRange:
			read += uint64(r.Size)
			written += uint64(r.Size)
		}
	}
	kinds := make([]trace.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	fmt.Fprintln(w, "summary:")
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %6d\n", k, counts[k])
	}
	fmt.Fprintf(w, "  compute cycles: %d\n", compute)
	fmt.Fprintf(w, "  bytes read: %d, bytes written: %d\n", read, written)
}
