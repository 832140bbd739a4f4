// Command m3sim boots an M3 system, runs a named workload on it, and
// reports platform statistics: cycles, per-DTU traffic, kernel load,
// and NoC totals. It is the exploration tool next to m3bench's fixed
// experiments.
//
// Usage:
//
//	m3sim -w tar -pes 4 -instances 2 -v
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/m3"
	"repro/internal/m3fs"
	//m3vet:allow crosslayer host-side -stats reporting reads link metric names after the run; no PE-side NoC access
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
	"text/tabwriter"
)

func main() {
	name := flag.String("w", "tar", "workload: cat+tr, tar, untar, find, sqlite")
	pes := flag.Int("pes", 0, "extra application PEs beyond what the workload needs")
	instances := flag.Int("n", 1, "parallel instances (one kernel, one m3fs)")
	verbose := flag.Bool("v", false, "per-PE DTU statistics")
	traceN := flag.Int("trace", 0, "print the first N trace events (DTU sends/receives, syscalls)")
	traceOut := flag.String("trace-out", "", "write the run's structured event stream as Chrome-trace/Perfetto JSON to this file")
	stats := flag.Bool("stats", false, "collect the metrics registry and print the per-PE/per-link utilization table after the run")
	sample := flag.Int("sample", 4096, "metrics sampling interval in cycles for -stats (0 = no time series)")
	engine := flag.String("engine", "calendar", "event queue: calendar (O(1) wheel) or heap (reference binary heap)")
	flag.Parse()

	var engCfg sim.Config
	switch *engine {
	case "calendar":
		engCfg.Queue = sim.QueueCalendar
	case "heap":
		engCfg.Queue = sim.QueueHeap
	default:
		log.Fatalf("m3sim: unknown -engine %q (want calendar or heap)", *engine)
	}

	b, err := workload.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *instances > 1 {
		runInstances(b, *instances, engCfg)
		return
	}

	eng := sim.NewEngineWith(engCfg)
	if *traceN > 0 {
		remaining := *traceN
		eng.SetTracer(func(at sim.Time, source, event string) {
			if remaining <= 0 {
				return
			}
			remaining--
			fmt.Printf("[%10d] %-8s %s\n", at, source, event)
		})
	}
	var events []obs.Event
	cfg := tile.Homogeneous(2 + b.PEs + *pes)
	if *traceOut != "" || *stats {
		var sink func(obs.Event)
		if *traceOut != "" {
			sink = func(ev obs.Event) { events = append(events, ev) }
		}
		cfg.Obs = obs.New(obs.Options{Sink: sink})
	}
	n := len(cfg.PEs)
	plat := tile.NewPlatform(eng, cfg)
	kern := core.Boot(plat, 0)
	if *stats && *sample > 0 {
		cfg.Obs.Metrics().StartSampler(eng, sim.Time(*sample))
	}
	if _, err := kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(kern, m3fs.Config{}, nil)); err != nil {
		log.Fatal(err)
	}
	var setup, run sim.Time
	_, err = kern.StartInit("app", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		os, err := workload.NewM3OS(env)
		if err != nil {
			log.Fatal(err)
		}
		s0 := ctx.Now()
		if err := b.Setup(os); err != nil {
			log.Fatal(err)
		}
		s1 := ctx.Now()
		if err := b.Run(os); err != nil {
			log.Fatal(err)
		}
		setup, run = s1-s0, ctx.Now()-s1
		env.Exit(0)
	})
	if err != nil {
		log.Fatal(err)
	}
	end := eng.Run()

	fmt.Printf("workload %s on %d PEs + memory tile (mesh %dx%d)\n",
		b.Name, n, plat.Net.Config().Width, plat.Net.Config().Height)
	fmt.Printf("  setup: %12d cycles\n", setup)
	fmt.Printf("  run:   %12d cycles\n", run)
	fmt.Printf("  total: %12d cycles simulated, %d events\n", end, eng.ExecutedEvents())
	fmt.Printf("  NoC:   %d packets, %d bytes\n", plat.Net.PacketsSent, plat.Net.BytesSent)
	fmt.Printf("  kernel CPU utilization: %.1f%%, syscalls:", kern.CPU().Utilization()*100)
	for _, sc := range kern.Stats.SortedSyscalls() {
		fmt.Printf(" %s=%d", sc.Op, sc.Count)
	}
	fmt.Println()
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WritePerfetto(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  trace: %d structured events -> %s\n", len(events), *traceOut)
	}
	if *stats {
		printStats(plat, cfg.Obs, end)
	}
	if *verbose {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  PE\ttype\tmsgs-sent\tmsgs-recv\treplies\tmem-reads\tmem-writes\tbytes-read\tbytes-written\tbusy")
		for _, pe := range plat.PEs {
			st := pe.DTU.Stats
			busy := 100.0
			if end > 0 {
				busy = 100 * (1 - float64(pe.DTU.IdleCyclesAt(end))/float64(end))
			}
			fmt.Fprintf(w, "  %d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f%%\n",
				pe.ID, pe.Type, st.MsgsSent, st.MsgsReceived, st.Replies,
				st.MemReads, st.MemWrites, st.BytesRead, st.BytesWritten, busy)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
	}
}

func runInstances(b workload.Benchmark, n int, engCfg sim.Config) {
	avg, err := bench.RunM3InstancesEngine(b, n, engCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s, %d instances, single kernel + single m3fs\n", b.Name, n)
	fmt.Printf("  mean run time per instance: %d cycles\n", avg)
}

// printStats renders the end-of-run utilization tables: per-PE busy
// fractions with the DTU's metric counters, and per-link busy cycles
// from the NoC's registry entries.
func printStats(plat *tile.Platform, tr *obs.Tracer, end sim.Time) {
	m := tr.Metrics()
	fmt.Println("  per-PE utilization:")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  PE\ttype\tbusy\tcredit-stalls\tretransmits\tnacks\trx-queued")
	for _, pe := range plat.PEs {
		busy := 100.0
		if end > 0 {
			busy = 100 * (1 - float64(pe.DTU.IdleCyclesAt(end))/float64(end))
		}
		node := int(pe.Node)
		fmt.Fprintf(w, "  %d\t%s\t%.0f%%\t%d\t%d\t%d\t%d\n",
			pe.ID, pe.Type,
			busy,
			m.Counter(dtu.MCreditStalls, node).Value(),
			m.Counter(dtu.MRetransmits, node).Value(),
			m.Counter(dtu.MNacks, node).Value(),
			m.Series(dtu.MRxQueued, node, nil).Last())
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  per-link utilization (links with traffic):")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  link\tbusy-cycles\tbusy\tqueued")
	links := 0
	for _, e := range m.Entries() {
		if e.Name != noc.MLinkBusy || e.Value() == 0 {
			continue
		}
		links++
		from, to := plat.Net.LinkByIndex(e.Idx)
		busy := 0.0
		if end > 0 {
			busy = 100 * float64(e.Value()) / float64(end)
		}
		fmt.Fprintf(w, "  %d->%d\t%d\t%.1f%%\t%d\n",
			from, to, e.Value(), busy,
			m.Series(noc.MLinkQueued, e.Idx, nil).Last())
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if links == 0 {
		fmt.Println("    (none: NoC in unlimited mode or no contention metrics)")
	}
	fmt.Println("  kernel counters:")
	for _, e := range m.Entries() {
		if e.Idx == -1 && e.Kind != obs.KindSeries {
			fmt.Printf("    %s = %d\n", e.Name, e.Value())
		}
	}
}
