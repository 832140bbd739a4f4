// Command m3sim is the one tool for running and reading a scenario.
// Without a subcommand it boots an M3 system, runs a named workload on
// it, and reports platform statistics: cycles, per-DTU traffic, kernel
// load, and NoC totals. With -n N > 1 it runs N instances behind a
// start barrier on the Figure 6 platform.
//
// The subcommands read the same run in other ways, and the ones that
// boot a scenario share its flags (-w, -pes, -n):
//
//	prof    cycle attribution per (PE, layer, span-kind) call path,
//	        with folded stacks for flame graphs
//	slo     critical-path blame at p50/p99/p99.9, worst-N exemplar
//	        span trees and the SLO burn-rate table
//	trace   the structured event stream as Perfetto JSON or text,
//	        filtered by request span or cycle window
//	diff    align two run captures and attribute their cycle delta
//	record  record a workload's operations on Linux or M3 (§5.6)
//	replay  replay a recorded trace on Linux or M3
//	show    print a recorded trace
//
// Usage:
//
//	m3sim -w tar -pes 4 -n 2 -v
//	m3sim prof -w find -o find.folded
//	m3sim slo -w tar -json slo.json
//	m3sim trace -w tar -span 14 -text
//	m3sim diff old.json new.json
//	m3sim record -w tar -os linux -o tar.trace
//	m3sim replay -i tar.trace -os m3 -w tar
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/dtu"
	//m3vet:allow crosslayer host-side -stats reporting reads link metric names after the run; no PE-side NoC access
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "m3sim:", err)
		os.Exit(1)
	}
}

// run dispatches args to a subcommand, or to the run report when the
// first argument names none, and writes the output to w.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		sub, rest := args[0], args[1:]
		switch sub {
		case "prof":
			return cmdProf(rest, w)
		case "slo":
			return cmdSLO(rest, w)
		case "trace":
			return cmdTrace(rest, w)
		case "diff":
			return cmdDiff(rest, w)
		case "record":
			return cmdRecord(rest, w)
		case "replay":
			return cmdReplay(rest, w)
		case "show":
			return cmdShow(rest, w)
		}
	}
	return cmdReport(args, w)
}

// scenarioFlags registers the flags every booting subcommand shares on
// fs and returns the function that builds, after parsing, the Scenario
// they describe.
func scenarioFlags(fs *flag.FlagSet) func() (bench.Scenario, error) {
	name := fs.String("w", "tar", "workload: cat+tr, tar, untar, find, sqlite")
	pes := fs.Int("pes", 0, "extra application PEs beyond what the workload needs")
	instances := fs.Int("n", 1, "parallel instances (one kernel, one m3fs)")
	return func() (bench.Scenario, error) {
		b, err := workload.ByName(*name)
		if err != nil {
			return bench.Scenario{}, err
		}
		sc := bench.Scenario{Workload: b}
		if *instances > 1 {
			sc.Instances = *instances
			sc.M3Options = bench.Fig6Options()
		}
		sc.ExtraPEs = *pes
		return sc, nil
	}
}

// writeOut writes through fn to the file at path and then prints done
// to w; the path "-" writes to w itself and prints nothing more.
func writeOut(w io.Writer, path, done string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(w)
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
	_, err = fmt.Fprintln(w, done)
	return err
}

// cmdReport runs the scenario and prints the platform report.
func cmdReport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("m3sim", flag.ContinueOnError)
	scenario := scenarioFlags(fs)
	verbose := fs.Bool("v", false, "per-PE DTU statistics")
	traceN := fs.Int("trace", 0, "print the first N structured events (DTU sends/receives, syscalls, kernel decisions)")
	stats := fs.Bool("stats", false, "collect the metrics registry and print the per-PE/per-link utilization table after the run")
	sample := fs.Int("sample", 4096, "metrics sampling interval in cycles for -stats (0 = no time series)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand %q (want prof, slo, trace, diff, record, replay or show)", fs.Arg(0))
	}
	sc, err := scenario()
	if err != nil {
		return err
	}
	if *traceN > 0 || *stats {
		printed := 0
		sc.Obs = obs.New(obs.Options{Sink: func(ev obs.Event) {
			if printed < *traceN {
				printed++
				fmt.Fprintln(w, ev)
			}
		}})
		if *stats {
			sc.SampleEvery = sim.Time(*sample)
		}
	}
	r, err := sc.Run()
	if err != nil {
		return err
	}

	plat, end := r.Plat, r.Stats.FinalTime
	fmt.Fprintf(w, "workload %s, %d instance(s) on %d PEs + memory tile (mesh %dx%d), single kernel + single m3fs\n",
		sc.Workload.Name, len(r.Outcomes), len(plat.PEs), plat.Net.Config().Width, plat.Net.Config().Height)
	for _, o := range r.Outcomes {
		fmt.Fprintf(w, "  %-6s setup: %12d cycles  run: %12d cycles\n", o.Name, o.StartAt-o.SetupAt, o.RunTime)
	}
	if len(r.Outcomes) > 1 {
		mean, err := r.MeanRunTime()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  mean run time per instance: %d cycles\n", mean)
	}
	fmt.Fprintf(w, "  total: %12d cycles simulated, %d events\n", end, r.Stats.ExecutedEvents)
	fmt.Fprintf(w, "  NoC:   %d packets, %d bytes\n", plat.Net.PacketsSent, plat.Net.BytesSent)
	fmt.Fprintf(w, "  kernel CPU utilization: %.1f%%, syscalls:", r.Kern.CPU().Utilization()*100)
	for _, op := range r.Kern.Stats.SortedSyscalls() {
		fmt.Fprintf(w, " %s=%d", op.Op, op.Count)
	}
	fmt.Fprintln(w)
	if *stats {
		if err := printStats(w, r, sc.Obs.Metrics()); err != nil {
			return err
		}
	}
	if *verbose {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  PE\ttype\tmsgs-sent\tmsgs-recv\treplies\tmem-reads\tmem-writes\tbytes-read\tbytes-written\tbusy")
		for _, pe := range plat.PEs {
			st := pe.DTU.Stats
			fmt.Fprintf(tw, "  %d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f%%\n",
				pe.ID, pe.Type, st.MsgsSent, st.MsgsReceived, st.Replies,
				st.MemReads, st.MemWrites, st.BytesRead, st.BytesWritten, busy(pe.DTU, end))
		}
		return tw.Flush()
	}
	return nil
}

// busy is the share of the run the DTU was not idle, in percent.
func busy(d *dtu.DTU, end sim.Time) float64 {
	if end == 0 {
		return 100
	}
	return 100 * (1 - float64(d.IdleCyclesAt(end))/float64(end))
}

// printStats renders the end-of-run utilization tables: per-PE busy
// fractions with the DTU's metric counters, and per-link busy cycles
// from the NoC's registry entries.
func printStats(w io.Writer, r *bench.Result, m *obs.Registry) error {
	plat, end := r.Plat, r.Stats.FinalTime
	fmt.Fprintln(w, "  per-PE utilization:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  PE\ttype\tbusy\tcredit-stalls\tretransmits\tnacks\trx-queued")
	for _, pe := range plat.PEs {
		node := int(pe.Node)
		fmt.Fprintf(tw, "  %d\t%s\t%.0f%%\t%d\t%d\t%d\t%d\n",
			pe.ID, pe.Type, busy(pe.DTU, end),
			m.Counter(dtu.MCreditStalls, node).Value(),
			m.Counter(dtu.MRetransmits, node).Value(),
			m.Counter(dtu.MNacks, node).Value(),
			m.Series(dtu.MRxQueued, node, nil).Last())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "  per-link utilization (links with traffic):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  link\tbusy-cycles\tbusy\tqueued")
	links := 0
	for _, e := range m.Entries() {
		if e.Name != noc.MLinkBusy || e.Value() == 0 {
			continue
		}
		links++
		from, to := plat.Net.LinkByIndex(e.Idx)
		share := 0.0
		if end > 0 {
			share = 100 * float64(e.Value()) / float64(end)
		}
		fmt.Fprintf(tw, "  %d->%d\t%d\t%.1f%%\t%d\n",
			from, to, e.Value(), share,
			m.Series(noc.MLinkQueued, e.Idx, nil).Last())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if links == 0 {
		fmt.Fprintln(w, "    (none: NoC in unlimited mode or no contention metrics)")
	}
	fmt.Fprintln(w, "  kernel counters:")
	for _, e := range m.Entries() {
		if e.Idx == -1 && e.Kind != obs.KindSeries {
			fmt.Fprintf(w, "    %s = %d\n", e.Name, e.Value())
		}
	}
	return nil
}
