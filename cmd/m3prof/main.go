// Command m3prof is the cycle-attribution profiler: it runs a named
// workload with the structured tracer wired into the streaming
// profiler and reports where the simulated cycles went, per (PE,
// layer, span-kind) call path. The folded-stack output (-o) feeds
// directly into flamegraph.pl, inferno, or speedscope; the default
// report prints the hottest paths and the per-PE attribution totals.
//
// Usage:
//
//	m3prof -w tar -top 20
//	m3prof -w find -o find.folded && flamegraph.pl find.folded > find.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	name := flag.String("w", "tar", "workload: cat+tr, tar, untar, find, sqlite")
	pes := flag.Int("pes", 0, "extra application PEs beyond what the workload needs")
	top := flag.Int("top", 15, "number of hottest call paths to print")
	out := flag.String("o", "", "write folded stacks (flamegraph.pl format) to this file")
	flag.Parse()

	b, err := workload.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	prof := obs.NewProfiler()
	r, err := bench.Scenario{Workload: b, M3Options: bench.M3Options{
		ExtraPEs: *pes,
		Obs:      obs.New(obs.Options{Sink: prof.Consume}),
	}}.Run()
	if err != nil {
		log.Fatal(err)
	}
	end := r.Stats.FinalTime

	fmt.Printf("workload %s: %d cycles simulated on %d PEs + memory tile\n",
		b.Name, end, len(r.Plat.PEs))

	fmt.Printf("  top %d call paths by self-cycles:\n", *top)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  self-cycles\tshare\tpath")
	for _, pc := range prof.Top(*top) {
		fmt.Fprintf(w, "  %d\t%.1f%%\t%s\n", pc.Cycles, 100*float64(pc.Cycles)/float64(end), pc.Path)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("  attributed cycles per PE:")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  PE\tattributed\tshare of run")
	for _, pc := range prof.TotalByPE() {
		fmt.Fprintf(w, "  %s\t%d\t%.1f%%\n", pc.Path, pc.Cycles, 100*float64(pc.Cycles)/float64(end))
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.WriteFolded(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %d folded stacks -> %s\n", len(prof.Folded()), *out)
	}
}
