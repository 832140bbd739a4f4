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
// on M3 — the figures, the ablations, the chaos tier, the differential
// harness and the CLIs — boots through Scenario.Run.
type Scenario struct {
	// Workload is the benchmark every instance runs.
	Workload workload.Benchmark
	// Instances selects the run shape. Zero runs one unprefixed
	// instance named "app" (Figures 3–5, 7 and the CLIs). n > 0 runs n
	// instances named "app<k>", each in its own /i<k> directory, that
	// enter their run phase together behind a start barrier (Figure 6,
	// the ablations, the chaos tier and the differential harness).
	Instances int
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
	b := sc.Workload
	n := max(sc.Instances, 1)
	s := bootM3NoFS(sc.M3Options, n*b.PEs)
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
	var barrier func(*sim.Process)
	if sc.Instances > 0 {
		ready := 0
		startSig := sim.NewSignal(s.eng)
		barrier = func(p *sim.Process) {
			ready++
			if ready == n {
				startSig.Broadcast()
			} else {
				startSig.Wait(p)
			}
		}
	}
	for i := range r.Outcomes {
		out := &r.Outcomes[i]
		out.Name = "app"
		prefix := ""
		if sc.Instances > 0 {
			out.Name = fmt.Sprintf("app%d", i)
			prefix = fmt.Sprintf("/i%d", i)
		}
		if out.VPE, err = s.kern.StartInit(out.Name, tile.CoreXtensa, sc.instance(s, out, prefix, barrier)); err != nil {
			return nil, fmt.Errorf("bench: starting %s: %w", out.Name, err)
		}
	}
	if sc.Faults != nil {
		if r.Inj, err = fault.Attach(s.kern, *sc.Faults); err != nil {
			return nil, fmt.Errorf("bench: attaching faults: %w", err)
		}
	}
	s.eng.Run()
	r.Stats = RunStats{ExecutedEvents: s.eng.ExecutedEvents(), FinalTime: s.eng.Now()}
	failed := s.eng.Deadlocked()
	for i := range r.Outcomes {
		failed = failed || !r.Outcomes[i].Finished
	}
	if failed && sc.Obs.FlightRecording() {
		r.FlightDump = sc.Obs.FlightDump()
	}
	if sc.Faults == nil {
		for _, o := range r.Outcomes {
			if o.Err != nil {
				return r, fmt.Errorf("%s: %w", o.Name, o.Err)
			}
			if !o.Finished {
				return r, fmt.Errorf("bench: instance %s did not finish", o.Name)
			}
		}
	}
	return r, nil
}

// instance is the program of one workload instance: setup, the start
// barrier (if any), then the measured run phase. Failures end the
// instance with exit code 1 and land in out.Err.
func (sc Scenario) instance(s *m3System, out *Outcome, prefix string, barrier func(*sim.Process)) core.Program {
	b := sc.Workload
	return func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, s.kern)
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
		if prefix != "" {
			os.Prefix = prefix
			if err := os.Mkdir(""); err != nil {
				fail(err)
				return
			}
		}
		if err := b.Setup(os); err != nil {
			fail(err)
			return
		}
		if barrier != nil {
			barrier(ctx.P)
		}
		os.ResetAppCycles()
		xferBase := s.xferCycles()
		out.StartAt = ctx.Now()
		err = b.Run(os)
		out.EndAt = ctx.Now()
		if err != nil {
			fail(err)
			return
		}
		out.RunTime = out.EndAt - out.StartAt
		out.App = sim.Time(os.AppCycles())
		out.Xfer = s.xferCycles() - xferBase
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
