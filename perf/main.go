// Command perf is the simulator's end-to-end and per-layer benchmark.
// It runs one workload for a time budget, each batch of iterations in a
// fresh child process, checks every output, and prints each metric with
// its unit; the last line of its output is one JSON object with the
// metrics and the attempted and failed iteration counts.
//
// Run it from the repository root through perf/run.sh, which builds it:
//
//	bash perf/run.sh --workload untar16 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from layer probes, a CPU profile of every measured
// phase attributed to layers, and the OS-boundary call log. README.md
// describes the workloads, the metrics and how to compare two commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metric{
	{"run_ms", "ms"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"sim_p50_cycles", "cycles"},
	{"sim_p99_cycles", "cycles"},
}

// perLayer lists the metrics of a traced run, in report order.
func perLayer() []metric {
	var m []metric
	for _, s := range shareNames {
		m = append(m, metric{"host_share." + s, "share"})
	}
	for _, p := range probes {
		if p.ms {
			m = append(m, metric{p.name + "_ms", "ms"})
		} else {
			m = append(m, metric{p.name + "_ns", "ns"})
		}
		if p.allocs {
			m = append(m, metric{p.name + "_bytes_per_op", "B/op"}, metric{p.name + "_allocs_per_op", "allocs/op"})
		}
	}
	for _, c := range []string{"sim.events", "sim.leaked_goroutines", "dtu.msgs_sent", "dtu.bytes_moved",
		"dtu.retransmits", "dtu.msgs_dropped", "dtu.sends_denied", "noc.packets", "noc.bytes",
		"noc.link_busy_cycles", "core.syscalls", "core.service_calls"} {
		unit := "count"
		switch {
		case strings.HasSuffix(c, "_cycles"):
			unit = "cycles"
		case c == "dtu.bytes_moved" || c == "noc.bytes":
			unit = "B"
		}
		m = append(m, metric{c, unit})
	}
	m = append(m, metric{"core.kernel_util", "share"}, metric{"mem.dram_port_util", "share"})
	for _, op := range opNames {
		m = append(m, metric{"m3." + op + ".calls", "count"}, metric{"m3." + op + ".host_us_p50", "us"},
			metric{"m3." + op + ".sim_cycles_p99", "cycles"})
	}
	return append(m, metric{"trace_overhead", "ratio"})
}

// Child process modes. Every child runs one iteration, or the probes,
// so each boot starts in a fresh process as it does under cmd/m3sim:
// the daemons a boot leaves parked pin its platform, and the next
// platform's DRAM would then be zeroed on reuse of freed heap pages.
const (
	modePlain   = "plain"   // untraced
	modeTraced  = "traced"  // CPU profile and host-timed OS calls
	modeCounter = "counter" // a metrics tracer attached for the link counters
	modeProbes  = "probes"  // the layer probes
)

// hardLimit bounds a whole invocation, children included.
const hardLimit = 170 * time.Second

// childReport is a child process's output.
type childReport struct {
	Iteration *iterResult        `json:"iteration,omitempty"`
	ShareNS   map[string]int64   `json:"share_ns,omitempty"`
	Probes    map[string]float64 `json:"probes,omitempty"`
	Err       string             `json:"err,omitempty"`
}

func main() {
	testing.Init() // the probes use testing.Benchmark and its -test.benchtime
	name := flag.String("workload", "", "workload: untar16, meta16, lossy4 or tail4")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (%d gives the paper's inputs)", defaultSeed))
	seconds := flag.Int("seconds", 20, "measurement time budget in seconds")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the CPU profiles of a traced run go to")
	child := flag.String("child", "", "internal: run as a child process in this mode")
	flag.Parse()

	if *child != "" {
		os.Exit(runChildMode(*child, *name, *seed, *out))
	}
	sp, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perf: want --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := drive(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// runChildMode does one child process's work and prints its report as
// one JSON line.
func runChildMode(mode, name string, seed uint64, out string) int {
	var rep childReport
	if mode == modeProbes {
		p, err := runProbes()
		if err != nil {
			rep.Err = err.Error()
		}
		rep.Probes = p
	} else {
		sp, err := specByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 2
		}
		var opt iterOpts
		switch mode {
		case modePlain:
		case modeCounter:
			opt.counters = true
		case modeTraced:
			dir := filepath.Join(out, "profiles", sp.name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "perf:", err)
				return 1
			}
			opt.hostOps = true
			opt.prof = &profiler{path: filepath.Join(dir, fmt.Sprintf("%d-%d.pprof", seed, os.Getpid())),
				ns: make(map[string]int64)}
		default:
			fmt.Fprintf(os.Stderr, "perf: unknown child mode %q\n", mode)
			return 2
		}
		it := runIteration(sp, makeInputs(sp, seed), opt)
		rep.Iteration = &it
		if opt.prof != nil {
			rep.ShareNS = opt.prof.ns
			if opt.prof.err != nil {
				rep.Err = opt.prof.err.Error()
			}
		}
	}
	//m3vet:allow timetaint the child's host timings are the benchmark's output, never simulation state
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// childRun is one finished child process as the parent process saw it.
type childRun struct {
	mode   string
	rep    childReport
	wall   time.Duration
	rssMB  float64
	failed string
}

// runChild runs one child process and collects its report.
func runChild(ctx context.Context, exe string, args []string, mode string) childRun {
	r := childRun{mode: mode}
	cmd := exec.CommandContext(ctx, exe, append(args, "-child", mode)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r.wall = time.Since(t0)
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // ru_maxrss is in KiB
		}
	}
	if err != nil {
		r.failed = fmt.Sprintf("%s child: %v: %s", mode, err, strings.TrimSpace(stderr.String()))
		return r
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	switch err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.rep); {
	case err != nil:
		r.failed = fmt.Sprintf("%s child report: %v", mode, err)
	case r.rep.Err != "":
		r.failed = fmt.Sprintf("%s child: %s", mode, r.rep.Err)
	case mode != modeProbes && r.rep.Iteration == nil:
		r.failed = fmt.Sprintf("%s child reported no iteration", mode)
	case mode != modeProbes && r.rep.Iteration.Err != "":
		r.failed = r.rep.Iteration.Err
	}
	return r
}

// drive runs child processes one after another for the time budget,
// then reports.
func drive(sp spec, seed uint64, budget time.Duration, traced bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if traced {
		if err := os.RemoveAll(filepath.Join(out, "profiles", sp.name)); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	args := []string{"-workload", sp.name, "-seed", fmt.Sprint(seed), "-out", out}

	start := time.Now()
	// A traced run starts with the probes and one counter iteration, then
	// alternates traced and untraced iterations, whose run times give
	// the tracing overhead.
	first, cycle := []string{}, []string{modePlain}
	if traced {
		first, cycle = []string{modeProbes, modeCounter}, []string{modeTraced, modePlain}
	}
	var runs []childRun
	var longest time.Duration
	for i := 0; ctx.Err() == nil; i++ {
		if i >= len(first)+len(cycle) && time.Since(start)+longest > budget {
			break
		}
		mode := ""
		if i < len(first) {
			mode = first[i]
		} else {
			mode = cycle[(i-len(first))%len(cycle)]
		}
		r := runChild(ctx, exe, args, mode)
		if mode != modeProbes {
			longest = max(longest, r.wall)
		}
		runs = append(runs, r)
	}
	aggregate(sp, seed, runs, traced).print(os.Stdout, sp, seed, traced)
	return nil
}

// result is the aggregated outcome of an invocation.
type result struct {
	attempted, failed int
	correct           bool
	failures          []string
	values            map[string]float64
	samples           map[string]int
}

func (res *result) set(name string, v float64, n int) {
	res.values[name] = v
	res.samples[name] = n
}

// aggregate checks every iteration's witness against the others' and
// the recorded one, and computes the metrics.
func aggregate(sp spec, seed uint64, runs []childRun, traced bool) *result {
	res := &result{values: make(map[string]float64), samples: make(map[string]int)}
	note := func(why string) {
		if len(res.failures) < 8 {
			res.failures = append(res.failures, why)
		}
	}
	fail := func(why string) {
		res.failed++
		note(why)
	}
	want, known := defaultWitness[sp.name]
	known = known && seed == defaultSeed
	var ok []childRun // successful iterations
	var probeVals map[string]float64
	for _, r := range runs {
		if r.mode == modeProbes {
			// Failed probes leave their metrics missing, which makes the
			// result incorrect below.
			if r.failed != "" {
				note(r.failed)
			}
			probeVals = r.rep.Probes
			continue
		}
		res.attempted++
		switch {
		case r.failed != "":
			fail(r.failed)
		case known && r.rep.Iteration.Witness != want:
			fail(fmt.Sprintf("witness %+v differs from the recorded %+v", r.rep.Iteration.Witness, want))
		case len(ok) > 0 && r.rep.Iteration.Witness != ok[0].rep.Iteration.Witness:
			fail(fmt.Sprintf("witness %+v differs from the first iteration's %+v",
				r.rep.Iteration.Witness, ok[0].rep.Iteration.Witness))
		default:
			ok = append(ok, r)
		}
	}
	// pick collects f over the successful iterations of one mode.
	pick := func(mode string, f func(r *childRun, it *iterResult) float64) []float64 {
		var xs []float64
		for i := range ok {
			if ok[i].mode == mode {
				xs = append(xs, f(&ok[i], ok[i].rep.Iteration))
			}
		}
		return xs
	}
	med := func(name, mode string, f func(r *childRun, it *iterResult) float64) {
		if xs := pick(mode, f); len(xs) > 0 {
			res.set(name, median(xs), len(xs))
		}
	}
	if !traced {
		med("run_ms", modePlain, func(_ *childRun, it *iterResult) float64 { return float64(it.RunNS) / 1e6 })
		med("events_per_s", modePlain, func(_ *childRun, it *iterResult) float64 {
			return float64(it.Events) / float64(it.RunNS) * 1e9
		})
		med("setup_s", modePlain, func(_ *childRun, it *iterResult) float64 { return float64(it.SetupNS) / 1e9 })
		med("wall_s", modePlain, func(r *childRun, _ *iterResult) float64 { return r.wall.Seconds() })
		med("alloc_mb", modePlain, func(_ *childRun, it *iterResult) float64 { return float64(it.AllocBytes) / 1e6 })
		med("peak_rss_mb", modePlain, func(r *childRun, _ *iterResult) float64 { return r.rssMB })
		if len(ok) > 0 {
			it := ok[0].rep.Iteration
			res.set("sim_cycles", it.SimCycles, 1)
			res.set("sim_p50_cycles", float64(it.SimP50), 1)
			res.set("sim_p99_cycles", float64(it.SimP99), 1)
		}
	} else {
		shares := make(map[string]int64)
		var total int64
		for _, r := range ok {
			for _, s := range shareNames {
				shares[s] += r.rep.ShareNS[s]
				total += r.rep.ShareNS[s]
			}
		}
		profiled := len(pick(modeTraced, func(*childRun, *iterResult) float64 { return 0 }))
		for _, s := range shareNames {
			if total > 0 {
				res.set("host_share."+s, float64(shares[s])/float64(total), profiled)
			}
		}
		for k, v := range probeVals {
			res.set(k, v, 1)
		}
		for _, r := range ok {
			if r.mode == modeCounter {
				for k, v := range r.rep.Iteration.Counts {
					res.set(k, v, 1)
				}
				break
			}
		}
		med("sim.leaked_goroutines", modeTraced, func(_ *childRun, it *iterResult) float64 {
			return it.Counts["sim.leaked_goroutines"]
		})
		for _, op := range opNames {
			name := "m3." + op
			med(name+".host_us_p50", modeTraced, func(_ *childRun, it *iterResult) float64 { return it.Counts[name+".host_us_p50"] })
			med(name+".calls", modeTraced, func(_ *childRun, it *iterResult) float64 { return it.Counts[name+".calls"] })
			med(name+".sim_cycles_p99", modeTraced, func(_ *childRun, it *iterResult) float64 { return it.Counts[name+".sim_cycles_p99"] })
		}
		runNS := func(_ *childRun, it *iterResult) float64 { return float64(it.RunNS) }
		if tr, pl := pick(modeTraced, runNS), pick(modePlain, runNS); len(tr) > 0 && len(pl) > 0 {
			res.set("trace_overhead", median(tr)/median(pl), min(len(tr), len(pl)))
		}
	}
	if res.attempted == 0 {
		fail("no iteration ran")
		res.attempted = 1
	}
	res.correct = res.failed == 0 && len(ok) > 0
	for _, m := range reported(traced) {
		if _, have := res.values[m.name]; !have {
			res.correct = false
			note("no value for " + m.name)
		}
	}
	return res
}

// reported returns the metrics a run reports.
func reported(traced bool) []metric {
	if traced {
		return perLayer()
	}
	return endToEnd
}

// print writes a human-readable table and, as the last line, the JSON
// result.
func (res *result) print(w *os.File, sp spec, seed uint64, traced bool) {
	fmt.Fprintf(w, "perf %s seed %d: %d iterations attempted, %d failed\n", sp.name, seed, res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm)
	for _, m := range reported(traced) {
		v, ok := res.values[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-9s (n=%d)\n", m.name, v, m.unit, res.samples[m.name])
		metrics[m.name] = jm{Value: v, Unit: m.unit}
	}
	//m3vet:allow timetaint host timings are the benchmark's output, never simulation state
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return
	}
	fmt.Fprintln(w, string(data))
}

// defaultWitness is each workload's witness at defaultSeed. A change
// that moves one changed what the simulator does, not how fast it is.
var defaultWitness = map[string]witness{
	"untar16": {Events: 460363, Cycles: 5495375},
	"meta16":  {Events: 598218, Cycles: 32158708},
	"lossy4":  {Events: 343437, Cycles: 6790356},
	"tail4":   {Events: 557051, Cycles: 19670081},
}
