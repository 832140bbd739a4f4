package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Standard objective names (package constants: m3vet sloname).
const (
	// sloTail: the p99-style latency objective over completed requests.
	sloTail = "e2e_latency"
	// sloAvail: the availability objective over completed requests.
	sloAvail = "e2e_availability"
)

// reportSchema versions the -json layout.
const reportSchema = 1

type blameJSON struct {
	Category string `json:"category"`
	Cycles   uint64 `json:"cycles"`
}

type quantileJSON struct {
	Q       float64     `json:"q"`
	Span    uint64      `json:"span"`
	Kind    string      `json:"kind"`
	Latency uint64      `json:"latency_cycles"`
	Fail    bool        `json:"fail"`
	Blame   []blameJSON `json:"blame"`
}

type exemplarJSON struct {
	Span      uint64   `json:"span"`
	Kind      string   `json:"kind"`
	Latency   uint64   `json:"latency_cycles"`
	Fail      bool     `json:"fail"`
	Truncated bool     `json:"truncated"`
	Tree      []string `json:"tree"`
}

type sloJSON struct {
	Name        string  `json:"name"`
	Objective   float64 `json:"objective"`
	Good        uint64  `json:"good"`
	Total       uint64  `json:"total"`
	BurnLong    float64 `json:"burn_long"`
	BurnShort   float64 `json:"burn_short"`
	Transitions uint64  `json:"transitions"`
	State       string  `json:"state"`
}

type reportJSON struct {
	Schema    int            `json:"schema"`
	Workload  string         `json:"workload"`
	Completed uint64         `json:"completed"`
	Failed    uint64         `json:"failed"`
	Evicted   uint64         `json:"evicted"`
	Truncated uint64         `json:"truncated"`
	Total     []blameJSON    `json:"total_blame"`
	Quantiles []quantileJSON `json:"quantiles"`
	Exemplars []exemplarJSON `json:"exemplars"`
	SLOs      []sloJSON      `json:"slos"`
}

func blameList(v obs.BlameVec) []blameJSON {
	out := make([]blameJSON, 0, obs.NumBlame)
	for cat := obs.BlameCat(0); cat < obs.NumBlame; cat++ {
		out = append(out, blameJSON{Category: cat.String(), Cycles: v[cat]})
	}
	return out
}

// cmdSLO is the critical-path attribution and SLO reporter: it runs the
// scenario with the structured tracer wired into the streaming
// critical-path engine, registers the standard end-to-end objectives,
// and reports where each request's latency went (app compute, DTU
// queueing and credit stalls, NoC wire time, kernel service,
// retransmit and backoff, overload shed) at p50, p99 and p99.9, with
// the worst-N exemplar span trees and the SLO burn-rate table.
//
// The report is deterministic: identical (workload, flags) runs produce
// byte-identical output, -json included. Exemplar span IDs pair with
// `m3sim trace -span` to drill into the exact p99 request.
func cmdSLO(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	scenario := scenarioFlags(fs)
	exemplars := fs.Int("exemplars", 4, "worst-N exemplar span trees to capture")
	bound := fs.Uint64("bound", 1<<17, "latency objective bound in cycles")
	jsonOut := fs.String("json", "", "write the machine-readable report to this file ('-' for stdout)")
	folded := fs.String("folded", "", "write folded blame stacks (flamegraph.pl format, prof-compatible) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := scenario()
	if err != nil {
		return err
	}

	slos := obs.NewSLOSet()
	slos.Objective(sloTail, obs.SLOConfig{
		Objective: 0.99, LatencyBound: sim.Time(*bound), Window: 1 << 20})
	slos.Objective(sloAvail, obs.SLOConfig{Objective: 0.999, Window: 1 << 20})
	cp := obs.NewCritPath(obs.CritPathOptions{Exemplars: *exemplars, SLO: slos})
	sc.Obs = obs.New(obs.Options{Sink: cp.Consume})
	r, err := sc.Run()
	if err != nil {
		return err
	}

	rep := cp.ReportAt([]float64{0.5, 0.99, 0.999})
	out := reportJSON{
		Schema: reportSchema, Workload: sc.Workload.Name,
		Completed: rep.Completed, Failed: rep.Failed,
		Evicted: rep.Evicted, Truncated: rep.Truncated,
		Total: blameList(rep.Total),
	}
	for _, q := range rep.Quantiles {
		out.Quantiles = append(out.Quantiles, quantileJSON{
			Q: q.Q, Span: uint64(q.Span), Kind: q.Kind,
			Latency: q.Latency, Fail: q.Fail, Blame: blameList(q.Blame),
		})
	}
	for _, ex := range rep.Exemplars {
		ej := exemplarJSON{
			Span: uint64(ex.Span), Kind: ex.Kind.String(),
			Latency: uint64(ex.Latency()), Fail: ex.Fail, Truncated: ex.Truncated,
		}
		for _, ev := range ex.Events {
			ej.Tree = append(ej.Tree, ev.String())
		}
		out.Exemplars = append(out.Exemplars, ej)
	}
	for _, o := range slos.All() {
		long, short := o.BurnRates()
		good, total := o.Counts()
		out.SLOs = append(out.SLOs, sloJSON{
			Name: o.Name(), Objective: o.Config().Objective,
			Good: good, Total: total, BurnLong: long, BurnShort: short,
			Transitions: o.Transitions(), State: o.State().String(),
		})
	}

	printSLO(w, r.Stats.FinalTime, rep, out)

	if *folded != "" {
		if err := writeOut(w, *folded, "  wrote folded blame stacks -> "+*folded, cp.WriteFolded); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		return writeOut(w, *jsonOut, "  wrote "+*jsonOut, func(f io.Writer) error {
			_, err := f.Write(data)
			return err
		})
	}
	return nil
}

// printSLO writes the text report.
func printSLO(w io.Writer, end sim.Time, rep obs.Report, out reportJSON) {
	fmt.Fprintf(w, "workload %s: %d cycles simulated, %d requests (%d failed, %d evicted, %d truncated)\n",
		out.Workload, end, rep.Completed, rep.Failed, rep.Evicted, rep.Truncated)

	fmt.Fprintln(w, "  aggregate blame (all completed requests):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	total := rep.Total.Total()
	fmt.Fprintln(tw, "  category\tcycles\tshare")
	for cat := obs.BlameCat(0); cat < obs.NumBlame; cat++ {
		share := 0.0
		if total > 0 {
			share = 100 * float64(rep.Total[cat]) / float64(total)
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f%%\n", cat, rep.Total[cat], share)
	}
	tw.Flush()

	fmt.Fprintln(w, "  per-quantile blame (the request at each quantile):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  q\tspan\tkind\tlatency\tapp\tqueue\tnoc\tkernel\tretry\tshed")
	for _, q := range rep.Quantiles {
		fmt.Fprintf(tw, "  p%g\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			q.Q*100, q.Span, q.Kind, q.Latency,
			q.Blame[obs.BlameApp], q.Blame[obs.BlameQueue], q.Blame[obs.BlameNoC],
			q.Blame[obs.BlameKernel], q.Blame[obs.BlameRetry], q.Blame[obs.BlameShed])
	}
	tw.Flush()

	fmt.Fprintln(w, "  worst exemplars (drill in with m3sim trace -span <id> -text):")
	for _, ex := range out.Exemplars {
		fmt.Fprintf(w, "    span %d: %s, %d cycles, %d events (fail=%v)\n",
			ex.Span, ex.Kind, ex.Latency, len(ex.Tree), ex.Fail)
	}

	fmt.Fprintln(w, "  objectives:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  slo\tobjective\tgood/total\tburn(long)\tburn(short)\tstate")
	for _, o := range out.SLOs {
		fmt.Fprintf(tw, "  %s\t%g\t%d/%d\t%.3f\t%.3f\t%s\n",
			o.Name, o.Objective, o.Good, o.Total, o.BurnLong, o.BurnShort, o.State)
	}
	tw.Flush()
}
