// Package fault is the deterministic fault-injection layer: it turns a
// declarative Plan into hooks threaded through the NoC (packet drops
// and header corruption per hop), the DTUs (transfer-engine stalls and
// the reliability parameters), the DRAM module (brownout windows), and
// the tile layer (whole-PE crashes), plus the kernel's death watchdog
// that detects and reaps crashed VPEs.
//
// Every random decision is drawn from private splitmix64 streams
// seeded from Plan.Seed, so a (configuration, seed) pair replays the
// exact same fault schedule — faults are part of the deterministic
// event schedule, not noise on top of it. This package is the only one
// allowed to arm the fault hooks of the lower layers (enforced by
// m3vet's faultsite rule).
package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Window is a DRAM brownout: between Start and End (cycles) every
// memory access pays ExtraLatency additional cycles while holding its
// port, so the slowdown also propagates as queueing delay.
type Window struct {
	Start, End   sim.Time
	ExtraLatency sim.Time
}

// Crash kills the core of one PE at a chosen cycle. The DTU survives
// (it is a separate hardware block), which is what lets the kernel
// detect the death and deconfigure the dead PE's endpoints.
type Crash struct {
	PE int
	At sim.Time
}

// Plan is a declarative, replayable fault schedule. The zero value is
// a valid plan that injects nothing (but still switches the DTUs into
// reliable operation, so a zero Plan is NOT bit-identical to a run
// without Attach).
type Plan struct {
	// Seed derives every random stream of the plan.
	Seed uint64

	// DropRate and CorruptRate are per-hop packet fault probabilities;
	// their sum must not exceed 1.
	DropRate    float64
	CorruptRate float64

	// StallRate is the probability that a DTU transfer pays StallCycles
	// extra cycles before entering the NoC (a busy transfer engine).
	StallRate   float64
	StallCycles sim.Time

	// Brownouts lists DRAM slowdown windows.
	Brownouts []Window

	// Crashes lists whole-PE core failures.
	Crashes []Crash

	// Timeout and MaxRetries override the DTU reliability defaults
	// (zero keeps dtu.DefaultTimeout / dtu.DefaultMaxRetries).
	Timeout    sim.Time
	MaxRetries int

	// HeartbeatPeriod and MaxMissedBeats parameterize the kernel death
	// watchdog, armed only when the plan contains a usable crash (zero
	// values keep the package defaults).
	HeartbeatPeriod sim.Time
	MaxMissedBeats  int

	// CallDeadline is the cycle budget for calls into services, armed —
	// like the watchdog — only when the plan contains a usable crash:
	// the kernel's callService helpers and (via the DTU fault
	// configuration) libm3's service calls then time out with clean
	// errors instead of waiting on a dead service forever, and clients
	// switch on session re-establishment (docs/RECOVERY.md). Zero keeps
	// DefaultCallDeadline.
	CallDeadline sim.Time
}

// Validate checks the plan's invariants: probabilities in [0,1] with
// drop+corrupt at most 1, well-formed brownout windows, crashes on
// application PEs (PE 0 hosts the kernel, which must not die), and a
// non-negative retry budget. Time-valued fields are unsigned by type.
func (pl *Plan) Validate() error {
	if pl.DropRate < 0 || pl.DropRate > 1 {
		return fmt.Errorf("fault: drop rate %v outside [0,1]", pl.DropRate)
	}
	if pl.CorruptRate < 0 || pl.CorruptRate > 1 {
		return fmt.Errorf("fault: corrupt rate %v outside [0,1]", pl.CorruptRate)
	}
	if pl.DropRate+pl.CorruptRate > 1 {
		return fmt.Errorf("fault: drop+corrupt rate %v exceeds 1", pl.DropRate+pl.CorruptRate)
	}
	if pl.StallRate < 0 || pl.StallRate > 1 {
		return fmt.Errorf("fault: stall rate %v outside [0,1]", pl.StallRate)
	}
	for i, w := range pl.Brownouts {
		if w.End < w.Start {
			return fmt.Errorf("fault: brownout %d window [%d,%d) is inverted", i, w.Start, w.End)
		}
	}
	for i, c := range pl.Crashes {
		if c.PE < 1 {
			return fmt.Errorf("fault: crash %d targets PE %d (the kernel PE cannot crash)", i, c.PE)
		}
	}
	if pl.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry budget %d", pl.MaxRetries)
	}
	if pl.MaxMissedBeats < 0 {
		return fmt.Errorf("fault: negative missed-beat budget %d", pl.MaxMissedBeats)
	}
	return nil
}

// normalized validates the plan and returns the copy the injector will
// own: defaults filled in, and the Brownouts/Crashes slices reheaded
// onto private arrays. The copy matters — an armed schedule must not
// alias the caller's slices, or mutating a Plan value after Attach
// (or writing through Injector.Plan()'s result) would silently rewrite
// the injected faults mid-run.
func (pl Plan) normalized() (Plan, error) {
	if err := pl.Validate(); err != nil {
		return Plan{}, err
	}
	if pl.StallCycles == 0 {
		pl.StallCycles = DefaultStallCycles
	}
	if pl.HeartbeatPeriod == 0 {
		pl.HeartbeatPeriod = DefaultHeartbeatPeriod
	}
	if pl.MaxMissedBeats == 0 {
		pl.MaxMissedBeats = DefaultMaxMissedBeats
	}
	if pl.CallDeadline == 0 {
		pl.CallDeadline = DefaultCallDeadline
	}
	pl.Brownouts = append([]Window(nil), pl.Brownouts...)
	pl.Crashes = append([]Crash(nil), pl.Crashes...)
	return pl, nil
}

// crashState tracks one scheduled crash through the run.
type crashState struct {
	crash   Crash
	skipped bool // PE out of range or the kernel's own: never fires
	fired   bool
	victim  *core.VPE // the VPE on the PE at crash time, if any
}

// Injector is an attached fault plan: the hooks are armed and the
// crashes scheduled. It exposes the plan's runtime effects for tests
// and reports.
type Injector struct {
	plan    Plan
	kern    *core.Kernel
	crashes []*crashState
}

// Distinct salts decorrelate the plan's random streams: the link
// stream and the stall stream advance independently, so adding stalls
// does not reshuffle which packets drop.
const (
	saltLink  uint64 = 0x6c696e6b00000001
	saltStall uint64 = 0x7374616c00000002
)

// Attach validates the plan and arms it on the kernel's platform: the
// NoC fault hook, the shared DTU reliability configuration on every
// PE (the kernel's included — its replies ride the same wires), the
// DRAM brownout hook, the scheduled crashes, and — when the plan
// contains a usable crash — the kernel's death watchdog. Attach must
// run before the engine does (crash times are absolute cycles).
func Attach(kern *core.Kernel, plan Plan) (*Injector, error) {
	plan, err := plan.normalized()
	if err != nil {
		return nil, err
	}
	inj := &Injector{plan: plan, kern: kern}
	plat := kern.Plat

	if plan.DropRate > 0 || plan.CorruptRate > 0 {
		// One draw per hop decides both fault kinds. The draw is
		// stateless — a hash of the hop's own identity (link, sequence
		// number, cycle) rather than the next value of a stream shared
		// by every PE's send path — so a hop's verdict never depends on
		// which other PEs transmitted before it. That keeps one PE's
		// fault schedule independent of every other PE's traffic and
		// gives retransmissions of the same sequence number fresh draws
		// (they traverse at a later cycle).
		drop, corrupt := plan.DropRate, plan.CorruptRate
		seed := plan.Seed ^ saltLink
		eng := plat.Eng
		plat.Net.SetFaultHook(func(from, to noc.NodeID, pkt *noc.Packet) noc.LinkFault {
			v := sim.Unit(sim.Hash(seed, uint64(from), uint64(to), pkt.Seq, uint64(eng.Now())))
			if v < drop {
				return noc.LinkDrop
			}
			if v < drop+corrupt {
				return noc.LinkCorrupt
			}
			return noc.LinkOK
		})
	}

	// Each PE gets its own fault configuration with its own stall
	// stream, salted by node id: transfer-engine stalls are per-PE
	// hardware behavior, and a stream shared across PEs would couple
	// one PE's stall schedule to every other PE's send count.
	base := dtu.FaultConfig{Timeout: plan.Timeout, MaxRetries: plan.MaxRetries}
	if len(plan.Brownouts) > 0 {
		windows := plan.Brownouts
		plat.DRAM.SetFaultDelay(func(now sim.Time) sim.Time {
			var extra sim.Time
			for _, w := range windows {
				if now >= w.Start && now < w.End {
					extra += w.ExtraLatency
				}
			}
			return extra
		})
	}

	armed := false
	for _, c := range plan.Crashes {
		cs := &crashState{crash: c}
		inj.crashes = append(inj.crashes, cs)
		if c.PE >= len(plat.PEs) || plat.PEs[c.PE] == kern.PE {
			cs.skipped = true
			continue
		}
		armed = true
		pe := plat.PEs[c.PE]
		plat.Eng.Schedule(c.At, func() {
			cs.fired = true
			cs.victim = kern.VPEOnPE(pe.ID)
			pe.Crash()
		})
	}
	if armed {
		// With a crash in the schedule, services can die: bound every
		// call into them. Without one nothing can wedge, and arming a
		// deadline would schedule timer events a fault-free-equivalent
		// run does not have.
		base.CallDeadline = plan.CallDeadline
		kern.SetServiceCallDeadline(plan.CallDeadline)
		kern.EnableDeathWatch(plan.HeartbeatPeriod, plan.MaxMissedBeats, inj.watchActive)
	}
	for _, pe := range plat.PEs {
		fc := base
		if plan.StallRate > 0 {
			rng := sim.NewRand(sim.Hash(plan.Seed^saltStall, uint64(pe.ID)))
			rate, stall := plan.StallRate, plan.StallCycles
			fc.PreSend = func(p *sim.Process) {
				if rng.Float64() < rate {
					p.Sleep(stall)
				}
			}
		}
		pe.DTU.EnableFaults(&fc)
	}
	return inj, nil
}

// watchActive keeps the death watchdog alive while there is still a
// crash to happen or a crashed VPE to reap; once every victim is
// detected and torn down the watchdog returns and the simulation can
// drain normally.
func (inj *Injector) watchActive() bool {
	for _, cs := range inj.crashes {
		if cs.skipped {
			continue
		}
		if !cs.fired {
			return true
		}
		if v := cs.victim; v != nil && !v.Exited() {
			return true
		}
	}
	return false
}

// Plan returns the attached plan with defaults filled in.
func (inj *Injector) Plan() Plan { return inj.plan }

// Victims returns the VPEs that were running on a crashed PE at crash
// time, in crash order (nil entries for crashes that hit an idle or
// skipped PE are omitted).
func (inj *Injector) Victims() []*core.VPE {
	var vs []*core.VPE
	for _, cs := range inj.crashes {
		if cs.victim != nil {
			vs = append(vs, cs.victim)
		}
	}
	return vs
}

// CrashesFired counts crashes that actually happened.
func (inj *Injector) CrashesFired() int {
	n := 0
	for _, cs := range inj.crashes {
		if cs.fired {
			n++
		}
	}
	return n
}

// Retransmits sums the reliability-layer retransmissions across every
// DTU of the platform.
func (inj *Injector) Retransmits() uint64 {
	var n uint64
	for _, pe := range inj.kern.Plat.PEs {
		n += pe.DTU.Stats.Retransmits
	}
	return n
}

// Aborts sums the transfers that exhausted their retry budget.
func (inj *Injector) Aborts() uint64 {
	var n uint64
	for _, pe := range inj.kern.Plat.PEs {
		n += pe.DTU.Stats.SendsAborted
	}
	return n
}
