// Command m3trace records and replays workload traces, the paper's
// benchmark methodology (§5.6): record a benchmark's syscall sequence
// on one OS model, store it, and replay it on the other. The export
// subcommand runs a workload on M3 with the structured tracer armed
// and writes the event stream as Chrome-trace/Perfetto JSON.
//
// Usage:
//
//	m3trace record -w tar -os linux -o tar.trace
//	m3trace replay -i tar.trace -os m3
//	m3trace show   -i tar.trace
//	m3trace export -w tar -o tar.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "show":
		cmdShow(os.Args[2:])
	case "export":
		cmdExport(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: m3trace record|replay|show|export [flags]")
	os.Exit(2)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("w", "tar", "workload to record")
	osName := fs.String("os", "linux", "system to record on: linux or m3")
	out := fs.String("o", "", "output trace file (default <workload>.trace)")
	_ = fs.Parse(args)
	b, err := workload.ByName(*wl)
	if err != nil {
		log.Fatal(err)
	}
	var tr *trace.Trace
	rb := b
	rb.Run = func(os workload.OS) error {
		rec := trace.NewRecorder(os)
		if err := b.Run(rec); err != nil {
			return err
		}
		tr = rec.T
		return nil
	}
	cycles := runOn(*osName, rb)
	path := *out
	if path == "" {
		path = *wl + ".trace"
	}
	if err := os.WriteFile(path, tr.Marshal(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d operations (%d simulated cycles) to %s\n", tr.Len(), cycles, path)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "trace file")
	osName := fs.String("os", "m3", "system to replay on: linux or m3")
	wl := fs.String("w", "tar", "workload whose Setup prepares the filesystem")
	_ = fs.Parse(args)
	if *in == "" {
		log.Fatal("m3trace: -i required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Unmarshal(data)
	if err != nil {
		log.Fatal(err)
	}
	b, err := workload.ByName(*wl)
	if err != nil {
		log.Fatal(err)
	}
	b.Run = func(os workload.OS) error { return trace.Replay(os, tr) }
	cycles := runOn(*osName, b)
	fmt.Printf("replayed %d operations on %s in %d simulated cycles\n", tr.Len(), *osName, cycles)
}

func cmdShow(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	in := fs.String("i", "", "trace file")
	limit := fs.Int("n", 30, "records to print (0 = all)")
	since := fs.Uint64("since", 0, "skip records before this cumulative compute-cycle offset")
	until := fs.Uint64("until", 0, "skip records at/after this cumulative compute-cycle offset (0 = end)")
	_ = fs.Parse(args)
	if *in == "" {
		log.Fatal("m3trace: -i required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Unmarshal(data)
	if err != nil {
		log.Fatal(err)
	}
	// Trace records carry no timestamps; the cumulative compute-cycle
	// offset before each record is the deterministic window proxy a
	// diff-flagged cycle range maps onto. I/O records ride at the
	// offset their predecessors accumulated.
	if *since > 0 || *until > 0 {
		var at uint64
		kept := make([]trace.Record, 0, len(tr.Records))
		for _, r := range tr.Records {
			inWindow := at >= *since && (*until == 0 || at < *until)
			if r.Kind == trace.KCompute {
				at += r.Cycles
			}
			if inWindow {
				kept = append(kept, r)
			}
		}
		fmt.Printf("%d of %d records in compute-cycle window [%d, %s)\n",
			len(kept), tr.Len(), *since, untilLabel(*until))
		tr = &trace.Trace{Records: kept}
	} else {
		fmt.Printf("%d records\n", tr.Len())
	}
	for i, r := range tr.Records {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... %d more\n", tr.Len()-i)
			break
		}
		switch r.Kind {
		case trace.KCompute:
			fmt.Printf("%5d  compute %d cycles\n", i, r.Cycles)
		case trace.KRead, trace.KWrite:
			fmt.Printf("%5d  %-8s fd=%d size=%d\n", i, r.Kind, r.FD, r.Size)
		case trace.KCopyRange:
			fmt.Printf("%5d  copyrange fd=%d<-fd=%d size=%d\n", i, r.FD, r.SrcFD, r.Size)
		case trace.KSeek:
			fmt.Printf("%5d  seek fd=%d off=%d whence=%d\n", i, r.FD, r.Off, r.Whence)
		case trace.KClose:
			fmt.Printf("%5d  close fd=%d\n", i, r.FD)
		default:
			fmt.Printf("%5d  %-8s %s\n", i, r.Kind, r.Path)
		}
	}
	showSummary(tr)
}

// untilLabel renders the window's right edge ("end" for 0).
func untilLabel(until uint64) string {
	if until == 0 {
		return "end"
	}
	return fmt.Sprintf("%d", until)
}

// showSummary prints the per-kind footer: record counts in kind-name
// order plus the trace's aggregate compute cycles and I/O volume.
func showSummary(tr *trace.Trace) {
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
	fmt.Println("summary:")
	for _, k := range kinds {
		fmt.Printf("  %-10s %6d\n", k, counts[k])
	}
	fmt.Printf("  compute cycles: %d\n", compute)
	fmt.Printf("  bytes read: %d, bytes written: %d\n", read, written)
}

// cmdExport runs a workload on M3 with the structured tracer armed and
// writes the event stream as Chrome-trace/Perfetto JSON (open in
// chrome://tracing or ui.perfetto.dev). With -span it exports a single
// request's span tree — the flag pairs with the exemplar SpanIDs that
// `m3slo` prints, so the exact p99 request can be drilled into.
// -since/-until keep only events within a simulated-cycle window — the
// flags pair with the cycle figures a capture diff (`m3diff`) flags,
// so a regressed window can be drilled into directly. -text prints the
// (filtered) events as human-readable lines instead.
func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	wl := fs.String("w", "tar", "workload to export")
	out := fs.String("o", "", "output JSON file (default <workload>.json)")
	span := fs.Uint64("span", 0, "export only this request's span tree (0 = all)")
	since := fs.Uint64("since", 0, "keep only events at/after this simulated cycle")
	until := fs.Uint64("until", 0, "keep only events before this simulated cycle (0 = end)")
	text := fs.Bool("text", false, "print events as text lines instead of writing Perfetto JSON")
	_ = fs.Parse(args)
	b, err := workload.ByName(*wl)
	if err != nil {
		log.Fatal(err)
	}
	var events []obs.Event
	tracer := obs.New(obs.Options{Sink: func(ev obs.Event) { events = append(events, ev) }})
	cycles := runM3(b, tracer)
	if *span != 0 {
		kept := events[:0]
		for _, ev := range events {
			if ev.Span == obs.SpanID(*span) {
				kept = append(kept, ev)
			}
		}
		events = kept
		if len(events) == 0 {
			log.Fatalf("m3trace: no events carry span %d", *span)
		}
	}
	if *since > 0 || *until > 0 {
		kept := events[:0]
		for _, ev := range events {
			at := uint64(ev.At)
			if at >= *since && (*until == 0 || at < *until) {
				kept = append(kept, ev)
			}
		}
		events = kept
		if len(events) == 0 {
			log.Fatalf("m3trace: no events in cycle window [%d, %s)", *since, untilLabel(*until))
		}
	}
	if *text {
		for _, ev := range events {
			fmt.Println(ev)
		}
		fmt.Printf("%d structured events (%d simulated cycles)\n", len(events), cycles)
		return
	}
	path := *out
	if path == "" {
		path = *wl + ".json"
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WritePerfetto(f, events); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d structured events (%d simulated cycles) to %s\n", len(events), cycles, path)
}

// runOn executes b on the named OS model and returns the simulated
// cycles its run phase took.
func runOn(osName string, b workload.Benchmark) sim.Time {
	switch osName {
	case "linux":
		bd, err := bench.RunLx(b, linuxos.ProfileXtensa, false)
		if err != nil {
			log.Fatal(err)
		}
		return bd.Total
	case "m3":
		return runM3(b, nil)
	}
	log.Fatalf("m3trace: unknown os %q (want linux or m3)", osName)
	return 0
}

// runM3 runs b on M3 (with the structured tracer wired when non-nil)
// and returns the simulated cycles its run phase took.
func runM3(b workload.Benchmark, tracer *obs.Tracer) sim.Time {
	r, err := bench.Scenario{Workload: b, M3Options: bench.M3Options{Obs: tracer}}.Run()
	if err != nil {
		log.Fatal(err)
	}
	return r.Outcomes[0].RunTime
}
