package bench

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/linuxos"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Experiment E-tail: where does the tail come from? A client fleet
// fires file operations on the open-loop burst generator (the E-load
// arrival machinery with a mid-run spike), the structured tracer
// streams every span into the critical-path engine
// (internal/obs/critpath.go), and the table reports the full blame
// decomposition — each layer's work and the waits on it (obs.Paint) —
// of the exact request sitting at p50 and p99, per workload, M3 vs the
// Linux model. On Linux the analog paints come from the per-operation
// linuxos.Stats deltas (os, xfer and the remainder mapped to kernel,
// dtu and app; a monolithic kernel has no service, NoC or wait to
// blame).
// Everything is deterministic: the rows are exact-match gated in the
// bench baseline, and the per-workload witness digests the entire
// request population so the differential tests can compare engines.

const (
	// etailSeed pins the arrival schedules.
	etailSeed uint64 = 0xE7A11
	// etailClients is the M3 client-fleet size.
	etailClients = 4
	// etailOps is the per-client operation count.
	etailOps = 48
	// etailInterval is the per-client steady arrival interval.
	etailInterval sim.Time = 3000
	// etailSpikeLen arrivals fire back-to-back mid-run (ShapeSpike):
	// the burst that manufactures the queueing tail.
	etailSpikeLen = 8
	// etailJitter decorrelates the per-client schedules.
	etailJitter = 0.15
	// etailFileSize/etailBufSize size the read workload's file and
	// per-operation read.
	etailFileSize = 32 << 10
	etailBufSize  = 4 << 10
)

// E-tail SLO names (package constants: m3vet obsname) and the latency
// bound fed to the tail objective.
const (
	etailSLOLatency = "etail_tail_latency"
	etailSLOAvail   = "etail_availability"

	etailSLOBound sim.Time = 1 << 13
)

// ETailQuantiles are the reported latency quantiles.
var ETailQuantiles = []float64{0.5, 0.99}

// etailOpKind selects the per-arrival operation.
type etailOpKind uint8

const (
	etailStat etailOpKind = iota // metadata round-trip (Stat)
	etailRead                    // 4 KiB data read from an open file
)

// ETailWorkload is one workload of the sweep.
type ETailWorkload struct {
	Name string
	op   etailOpKind
}

// ETailWorkloads is the workload set (the acceptance gate wants at
// least two).
var ETailWorkloads = []ETailWorkload{
	{Name: "stat", op: etailStat},
	{Name: "read", op: etailRead},
}

// ETailQ is the blame decomposition at one quantile.
type ETailQ struct {
	Q       float64
	Latency uint64
	Blame   obs.BlameVec
}

// ETailSystem is one system's view of one workload.
type ETailSystem struct {
	System    string // "m3" or "lx"
	Requests  uint64
	Quantiles []ETailQ
}

// ETailWorkloadResult is one workload row group.
type ETailWorkloadResult struct {
	Workload string
	M3, Lx   ETailSystem

	// SLO outcome of the M3 run (the Linux model has no SLO engine).
	SLOGood, SLOTotal uint64
	SLOTransitions    uint64
	SLOState          string

	// Witness digests the entire M3 request population (span, latency,
	// blame vector) plus the run statistics; the determinism test
	// compares it across two runs.
	Witness uint64
	Stats   RunStats
}

// ETailResult is the E-tail experiment output.
type ETailResult struct {
	Workloads []ETailWorkloadResult
}

// etailGen builds one client's arrival schedule: constant interval
// with jitter plus one mid-run spike of back-to-back arrivals.
func etailGen(stream uint64) *overload.Gen {
	return overload.NewGen(overload.BurstConfig{
		Seed:     etailSeed,
		Shape:    overload.ShapeSpike,
		Interval: etailInterval,
		Count:    etailOps,
		Jitter:   etailJitter,
		SpikeAt:  etailInterval * etailOps / 2,
		SpikeLen: etailSpikeLen,
	}, stream)
}

// etailClientSetup prepares one client's namespace: the stat probe
// and the read file.
func etailClientSetup(os workload.OS) error {
	if err := writeFilePattern(os, "/probe", 64); err != nil {
		return err
	}
	return writeFilePattern(os, "/data", etailFileSize)
}

// etailOp fires one client operation (both systems drive the same
// workload.OS surface). The read op is a full open/seek-read/close
// round so every arrival crosses the OS — on M3 each call is its own
// root span; a long-lived handle would serve most reads from the
// client-side extent cache without ever leaving the PE.
func etailOp(w ETailWorkload, os workload.OS, i int, buf []byte) error {
	switch w.op {
	case etailStat:
		_, err := os.Stat("/probe")
		return err
	default:
		f, err := os.Open("/data", workload.Read)
		if err != nil {
			return err
		}
		if sf, ok := f.(workload.SeekableFile); ok {
			off := int64(i%(etailFileSize/etailBufSize)) * etailBufSize
			if _, err := sf.Seek(off, 0); err != nil {
				return err
			}
		}
		if _, err := f.Read(buf); err != nil {
			return err
		}
		return f.Close()
	}
}

// runETailM3 drives one workload on M3 and reports its population.
func runETailM3(w ETailWorkload) (*ETailWorkloadResult, error) {
	slos := obs.NewSLOSet()
	tail := slos.Objective(etailSLOLatency, obs.SLOConfig{
		Objective: 0.99, LatencyBound: etailSLOBound, Window: 1 << 18})
	slos.Objective(etailSLOAvail, obs.SLOConfig{Objective: 0.999, Window: 1 << 18})
	cp, r, err := etailM3(w, slos)
	if err != nil {
		return nil, err
	}

	res := &ETailWorkloadResult{
		Workload: w.Name,
		M3:       ETailSystem{System: "m3", Requests: cp.Completed()},
		SLOState: tail.State().String(),
		Stats:    r.Stats,
	}
	res.SLOGood, res.SLOTotal = tail.Counts()
	res.SLOTransitions = tail.Transitions()
	pop := cp.Requests()
	if len(pop) == 0 {
		return nil, fmt.Errorf("etail %s: no completed requests on M3", w.Name)
	}
	for _, q := range ETailQuantiles {
		req := pop[obs.NearestRank(q, len(pop))]
		res.M3.Quantiles = append(res.M3.Quantiles, ETailQ{
			Q: q, Latency: uint64(req.Latency()), Blame: req.Blame})
	}
	h := fnv.New64a()
	for _, req := range pop {
		fmt.Fprintf(h, "%d %d %v\n", req.Span, req.Latency(), req.Blame)
	}
	fmt.Fprintf(h, "ev=%d ft=%d\n", res.Stats.ExecutedEvents, res.Stats.FinalTime)
	res.Witness = h.Sum64()
	return res, nil
}

// etailM3 runs one workload's fleet on M3 with the critical-path
// engine armed after setup (the measured population is the
// steady-state fleet traffic, not the scaffolding), feeding slos.
func etailM3(w ETailWorkload, slos *obs.SLOSet) (*obs.CritPath, *Result, error) {
	cp := obs.NewCritPath(obs.CritPathOptions{Exemplars: 2, SLO: slos})
	armed := false
	tracer := obs.New(obs.Options{Sink: func(ev obs.Event) {
		if armed {
			cp.Consume(ev)
		}
	}})
	buf := make([]byte, etailBufSize)
	r, err := fleet{
		clients:  etailClients,
		setup:    func(os *workload.M3OS) error { return etailClientSetup(os) },
		arrivals: func(k int) *overload.Gen { return etailGen(uint64(k)) },
		op: func(_, i int, os *workload.M3OS) error {
			// The first operation comes from the last client through the
			// start barrier, before any other client resumes: from here
			// on every span belongs to steady-state traffic.
			armed = true
			return etailOp(w, os, i, buf)
		},
	}.run(M3Options{Obs: tracer})
	return cp, r, err
}

// lxReq is one timed Linux operation with its Stats-delta blame.
type lxReq struct {
	lat   sim.Time
	blame obs.BlameVec
}

// runETailLx drives the same offered schedule on the Linux model (one
// process — the monolithic-kernel baseline has no per-PE fleet) and
// derives per-operation blame from the linuxos.Stats deltas.
func runETailLx(w ETailWorkload) (ETailSystem, error) {
	var reqs []lxReq
	b := workload.Benchmark{Name: "etail", PEs: 1, Setup: etailClientSetup,
		Run: func(os workload.OS) error {
			lx := os.(*workload.LxOS)
			p, sys := lx.Proc.P(), lx.Sys
			// Every individual call — the granularity of M3's root spans —
			// joins the request population.
			record := func(_ int, call func() error) error {
				pre := sys.Stats
				t0 := p.Now()
				err := call()
				if err != nil {
					return err
				}
				lat := p.Now() - t0
				var blame obs.BlameVec
				kern, xfer := sys.Stats.OS-pre.OS, sys.Stats.Xfer-pre.Xfer
				blame[obs.PaintOf(obs.LKernel, false)] = uint32(kern)
				blame[obs.PaintOf(obs.LDTU, false)] = uint32(xfer)
				if lat > kern+xfer {
					blame[obs.PaintOf(obs.LApp, false)] = uint32(lat - kern - xfer)
				}
				reqs = append(reqs, lxReq{lat: lat, blame: blame})
				return nil
			}
			tos := &timedOS{OS: os, rec: record}
			buf := make([]byte, etailBufSize)
			base := p.Now()
			// One process serves the whole fleet's schedule: every
			// client's arrivals in time order, ties in client order, so
			// the offered sequence matches the M3 run's.
			type arrival struct {
				at sim.Time
				i  int
			}
			var arrivals []arrival
			for ci := range etailClients {
				gen := etailGen(uint64(ci))
				for i := 0; ; i++ {
					at, ok := gen.Next()
					if !ok {
						break
					}
					arrivals = append(arrivals, arrival{at, i})
				}
			}
			sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].at < arrivals[b].at })
			for _, a := range arrivals {
				if target := base + a.at; p.Now() < target {
					p.Sleep(target - p.Now())
				}
				if err := etailOp(w, tos, a.i, buf); err != nil {
					return err
				}
			}
			return nil
		}}
	if _, err := (Scenario{Workload: b, Lx: &LxModel{Profile: linuxos.ProfileXtensa}}).Run(); err != nil {
		return ETailSystem{}, err
	}
	res := ETailSystem{System: "lx", Requests: uint64(len(reqs))}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].lat < reqs[j].lat })
	if len(reqs) == 0 {
		return ETailSystem{}, fmt.Errorf("etail %s: no operations on lx", w.Name)
	}
	for _, q := range ETailQuantiles {
		idx := obs.NearestRank(q, len(reqs))
		res.Quantiles = append(res.Quantiles, ETailQ{
			Q: q, Latency: uint64(reqs[idx].lat), Blame: reqs[idx].blame})
	}
	return res, nil
}

// ETail runs the blame-at-the-tail sweep on both systems.
func ETail() (*ETailResult, error) {
	res := &ETailResult{}
	for _, w := range ETailWorkloads {
		m3r, err := runETailM3(w)
		if err != nil {
			return nil, fmt.Errorf("etail %s on M3: %w", w.Name, err)
		}
		lx, err := runETailLx(w)
		if err != nil {
			return nil, fmt.Errorf("etail %s on Linux: %w", w.Name, err)
		}
		m3r.Lx = lx
		res.Workloads = append(res.Workloads, *m3r)
	}
	return res, nil
}

// qLabel renders a quantile as a stable row label (p50, p99).
func qLabel(q float64) string {
	return fmt.Sprintf("p%g", q*100)
}

// Tables renders the E-tail tables. Every cell is deterministic, so the
// default exact-match tolerance gates them.
func (r *ETailResult) Tables() []*Table {
	header := []string{"workload", "system", "q", "latency_cycles"}
	for p := range obs.NumPaints {
		header = append(header, p.String())
	}
	blame := &Table{Name: "etail_blame", Rows: [][]string{header}}
	for _, wr := range r.Workloads {
		for _, s := range []*ETailSystem{&wr.M3, &wr.Lx} {
			for _, q := range s.Quantiles {
				row := []string{wr.Workload, s.System, qLabel(q.Q), fmt.Sprint(q.Latency)}
				for _, c := range q.Blame {
					row = append(row, fmt.Sprint(c))
				}
				blame.Rows = append(blame.Rows, row)
			}
		}
	}
	slo := &Table{Name: "etail_slo", Rows: [][]string{
		{"workload", "requests", "slo_good", "slo_total", "transitions", "state"},
	}}
	for _, wr := range r.Workloads {
		slo.Rows = append(slo.Rows, []string{
			wr.Workload, fmt.Sprint(wr.M3.Requests),
			fmt.Sprint(wr.SLOGood), fmt.Sprint(wr.SLOTotal),
			fmt.Sprint(wr.SLOTransitions), wr.SLOState,
		})
	}
	blame.Title = fmt.Sprintf("E-tail: critical-path blame at the tail, %d clients x %d ops, spike of %d (seed %#x; cycles)",
		etailClients, etailOps, etailSpikeLen, etailSeed)
	slo.Title = fmt.Sprintf("E-tail: M3 %s objective (bound %d cycles)", etailSLOLatency, etailSLOBound)
	return []*Table{blame, slo}
}
