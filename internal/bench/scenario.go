package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

// Scenario is one M3 run of a workload: a kernel, an m3fs, and the
// workload's instances on one platform. Every workload.Benchmark run
// on M3 — the figures, the utilization, latency and load experiments,
// the ablations, the chaos tier, the differential harness and m3sim —
// boots through Scenario.Run.
type Scenario struct {
	// Workload is the benchmark every instance runs.
	Workload workload.Benchmark
	// Instances selects the run shape. Zero runs one unprefixed
	// instance named "app" (Figures 3–5, 7 and m3sim). n > 0 runs n
	// instances named "app<k>", each in its own /i<k> directory, that
	// enter their run phase together behind a start barrier (Figure 6,
	// the ablations, the chaos tier, the differential harness and the
	// client fleets of E-tail and E-load).
	Instances int
	// SerialSetup runs the instances' setup phases one at a time in
	// instance order, the m3fs mount included, so that the run phase
	// measures steady-state traffic rather than a thundering-herd boot
	// (E-tail and E-load). It applies only with Instances > 0.
	SerialSetup bool
	// Faults, if set, is attached after every VPE is queued and before
	// the engine runs, so crash times are absolute simulation cycles.
	// Under faults a failed instance is a result, reported through its
	// Outcome, not a harness error. Nil runs without the fault layer; a
	// zero Plan is not the same, since it arms the DTUs' reliable mode.
	Faults *fault.Plan
	M3Options
}

// Outcome is one instance's result. A crashed instance simply stops:
// Finished stays false and EndAt marks how far it got (zero if it
// never left the start barrier).
type Outcome struct {
	Name     string
	VPE      *core.VPE
	Finished bool
	// SetupAt, StartAt and EndAt are the cycles at which the instance
	// began its setup, entered its run phase and left it.
	SetupAt sim.Time
	StartAt sim.Time
	EndAt   sim.Time
	RunTime sim.Time
	// App is the run phase's application compute; Xfer the DTU data
	// transfer cycles the whole platform spent during it.
	App  sim.Time
	Xfer sim.Time
	Err  error
}

// Result exposes the full system state after a run, so callers can
// assert isolation properties (no live capabilities of dead VPEs,
// deconfigured endpoints, closed sessions) rather than just completion.
type Result struct {
	Eng      *sim.Engine
	Plat     *tile.Platform
	Kern     *core.Kernel
	FS       *m3fs.Service
	Inj      *fault.Injector
	Stats    RunStats
	Outcomes []Outcome
	// FSReadyAt records when each m3fs incarnation finished starting
	// (entry 0 is boot; later entries are supervisor restarts). The
	// recovery sweep derives time-to-recover from it.
	FSReadyAt []sim.Time
	// FlightDump is the flight-recorder post-mortem, captured
	// automatically when a structured tracer with an armed recorder is
	// installed and the run failed (deadlock or any unfinished instance).
	FlightDump string
}

// Run boots the scenario's platform, runs it to completion and returns
// the result. Without Faults, an instance that fails or does not
// finish is a harness bug and Run returns its error along with the
// result.
func (sc Scenario) Run() (*Result, error) {
	r, err := sc.boot()
	if err != nil {
		return nil, err
	}
	return r, sc.run(r)
}

// boot builds the platform and queues m3fs, every instance and the
// fault layer without running the engine. Callers inside the package
// that must watch the run from its first cycle (RunUtilization's per-PE
// idle series) hook in between boot and run.
func (sc Scenario) boot() (*Result, error) {
	n := max(sc.Instances, 1)
	s := bootM3NoFS(sc.M3Options, n*sc.Workload.PEs)
	r := &Result{Eng: s.eng, Plat: s.plat, Kern: s.kern, Outcomes: make([]Outcome, n)}
	fsProg := m3fs.Program(s.kern, sc.FS, func(svc *m3fs.Service) {
		r.FS = svc
		r.FSReadyAt = append(r.FSReadyAt, s.eng.Now())
	})
	var err error
	if sc.FSPolicy.MaxRestarts > 0 {
		_, err = s.kern.StartInitSupervised("m3fs", tile.CoreXtensa, fsProg, sc.FSPolicy)
	} else {
		_, err = s.kern.StartInit("m3fs", tile.CoreXtensa, fsProg)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: starting m3fs: %w", err)
	}
	var g *gate
	if sc.Instances > 0 {
		g = &gate{n: n, start: sim.NewSignal(s.eng)}
		if sc.SerialSetup {
			g.next = sim.NewSignal(s.eng)
		}
	}
	for k := range r.Outcomes {
		out := &r.Outcomes[k]
		out.Name = "app"
		if sc.Instances > 0 {
			out.Name = fmt.Sprintf("app%d", k)
		}
		if out.VPE, err = s.kern.StartInit(out.Name, tile.CoreXtensa, sc.instance(r, k, g)); err != nil {
			return nil, fmt.Errorf("bench: starting %s: %w", out.Name, err)
		}
	}
	if sc.Faults != nil {
		if r.Inj, err = fault.Attach(s.kern, *sc.Faults); err != nil {
			return nil, fmt.Errorf("bench: attaching faults: %w", err)
		}
	}
	return r, nil
}

// run runs a booted scenario to completion and fills in r.
func (sc Scenario) run(r *Result) error {
	r.Eng.Run()
	r.Stats = RunStats{ExecutedEvents: r.Eng.ExecutedEvents(), FinalTime: r.Eng.Now()}
	failed := r.Eng.Deadlocked()
	for i := range r.Outcomes {
		failed = failed || !r.Outcomes[i].Finished
	}
	if failed && sc.Obs.FlightRecording() {
		r.FlightDump = sc.Obs.FlightDump()
	}
	if sc.Faults != nil {
		return nil
	}
	// A failed instance leaves the others waiting at the start barrier,
	// so its error comes before any "did not finish".
	for _, o := range r.Outcomes {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Name, o.Err)
		}
	}
	for _, o := range r.Outcomes {
		if !o.Finished {
			return fmt.Errorf("bench: instance %s did not finish", o.Name)
		}
	}
	return nil
}

// gate sequences the instances of a multi-instance scenario. Under
// SerialSetup instance k waits for setup turn k before it mounts m3fs
// and hands the turn on once its setup is done; every instance then
// waits at the start barrier until all n are ready. A nil gate (one
// unprefixed instance) never blocks.
type gate struct {
	n, ready, turn int
	start          *sim.Signal
	next           *sim.Signal // nil without SerialSetup
}

// awaitTurn blocks instance k until its setup turn.
func (g *gate) awaitTurn(p *sim.Process, k int) {
	for g != nil && g.next != nil && g.turn != k {
		g.next.Wait(p)
	}
}

// arrive ends the caller's setup: it hands on the setup turn and
// waits at the start barrier.
func (g *gate) arrive(p *sim.Process) {
	if g == nil {
		return
	}
	if g.next != nil {
		g.turn++
		g.next.Broadcast()
	}
	g.ready++
	if g.ready == g.n {
		g.start.Broadcast()
	} else {
		g.start.Wait(p)
	}
}

// instance is the program of instance k: setup, the start barrier (if
// any), then the measured run phase. Failures end the instance with
// exit code 1 and land in its Outcome's Err.
func (sc Scenario) instance(r *Result, k int, g *gate) core.Program {
	b := sc.Workload
	out := &r.Outcomes[k]
	return func(ctx *tile.Ctx) {
		g.awaitTurn(ctx.P, k)
		env := m3.NewEnv(ctx, r.Kern)
		fail := func(err error) {
			out.Err = err
			env.Exit(1)
		}
		os, err := workload.NewM3OS(env)
		if err != nil {
			fail(err)
			return
		}
		out.SetupAt = ctx.Now()
		if sc.AppendBlocks > 0 {
			os.FS.AppendBlocks = sc.AppendBlocks
		}
		os.FS.NoMerge = sc.NoMerge
		if sc.Instances > 0 {
			os.Prefix = fmt.Sprintf("/i%d", k)
			if err := os.Mkdir(""); err != nil {
				fail(err)
				return
			}
		}
		if err := b.Setup(os); err != nil {
			fail(err)
			return
		}
		g.arrive(ctx.P)
		os.ResetAppCycles()
		xferBase := xferCycles(r.Plat)
		out.StartAt = ctx.Now()
		err = b.Run(os)
		out.EndAt = ctx.Now()
		if err != nil {
			fail(err)
			return
		}
		out.RunTime = out.EndAt - out.StartAt
		out.App = sim.Time(os.AppCycles())
		out.Xfer = xferCycles(r.Plat) - xferBase
		out.Finished = true
		env.Exit(0)
	}
}

// Breakdown splits the first instance's run phase into the paper's
// stacked-bar categories. Parent and child PEs overlap (pipes), so each
// category is capped at the remaining time, app first, then transfers.
func (r *Result) Breakdown() Breakdown {
	o := r.Outcomes[0]
	bd := Breakdown{Total: o.RunTime, App: min(o.App, o.RunTime)}
	bd.Xfer = min(o.Xfer, bd.Total-bd.App)
	bd.OS = bd.Total - bd.App - bd.Xfer
	return bd
}

// MeanRunTime is the mean run-phase time per instance (Figure 6). A
// dropped message fails it: the receive buffers are sized for every
// instance count, so a drop means a ringbuffer overcommit.
func (r *Result) MeanRunTime() (sim.Time, error) {
	var drops uint64
	for _, pe := range r.Plat.PEs {
		drops += pe.DTU.Stats.MsgsDropped
	}
	if drops > 0 {
		return 0, fmt.Errorf("bench: %d messages dropped (ringbuffer overcommit)", drops)
	}
	var sum sim.Time
	for _, o := range r.Outcomes {
		sum += o.RunTime
	}
	return sum / sim.Time(len(r.Outcomes)), nil
}
