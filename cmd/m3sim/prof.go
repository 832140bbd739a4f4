package main

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/obs"
)

// cmdProf is the cycle-attribution profiler: it runs the scenario with
// the structured tracer wired into the streaming profiler and reports
// where the simulated cycles went, per (PE, layer, span-kind) call
// path: the hottest paths and the per-PE attribution totals. The
// folded stacks (-o) feed flamegraph.pl, inferno or speedscope.
func cmdProf(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	scenario := scenarioFlags(fs)
	top := fs.Int("top", 15, "number of hottest call paths to print")
	out := fs.String("o", "", "write folded stacks (flamegraph.pl format) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := scenario()
	if err != nil {
		return err
	}
	prof := obs.NewProfiler()
	sc.Obs = obs.New(obs.Options{Sink: prof.Consume})
	r, err := sc.Run()
	if err != nil {
		return err
	}
	end := r.Stats.FinalTime

	fmt.Fprintf(w, "workload %s: %d cycles simulated on %d PEs + memory tile\n",
		sc.Workload.Name, end, len(r.Plat.PEs))

	fmt.Fprintf(w, "  top %d call paths by self-cycles:\n", *top)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  self-cycles\tshare\tpath")
	for _, pc := range prof.Top(*top) {
		fmt.Fprintf(tw, "  %d\t%.1f%%\t%s\n", pc.Cycles, 100*float64(pc.Cycles)/float64(end), pc.Path)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "  attributed cycles per PE:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  PE\tattributed\tshare of run")
	for _, pc := range prof.TotalByPE() {
		fmt.Fprintf(tw, "  %s\t%d\t%.1f%%\n", pc.Path, pc.Cycles, 100*float64(pc.Cycles)/float64(end))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if *out == "" {
		return nil
	}
	return writeOut(w, *out, fmt.Sprintf("  wrote %d folded stacks -> %s", len(prof.Folded()), *out), prof.WriteFolded)
}
