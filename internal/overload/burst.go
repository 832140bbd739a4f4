// Package overload generates the open-loop arrival schedules of the
// load experiments (E-load, E-tail and perf's tail4): constant, step
// and spike shapes with seeded per-client jitter. Nothing in it
// schedules events: a generator is a pure function of its
// configuration, so identical runs see identical arrivals.
package overload

import "repro/internal/sim"

// Shape selects the arrival pattern of a burst generator.
type Shape uint8

// Arrival shapes.
const (
	// ShapeConstant emits arrivals at a fixed interval.
	ShapeConstant Shape = iota
	// ShapeStep switches from Interval to StepInterval at StepAt —
	// a sustained load change.
	ShapeStep
	// ShapeSpike injects SpikeLen back-to-back arrivals on top of the
	// constant base rate once the clock passes SpikeAt.
	ShapeSpike
)

func (s Shape) String() string {
	switch s {
	case ShapeConstant:
		return "constant"
	case ShapeStep:
		return "step"
	case ShapeSpike:
		return "spike"
	}
	return "unknown"
}

// BurstConfig parameterizes an open-loop arrival schedule.
type BurstConfig struct {
	// Seed derives the jitter stream (decorrelated per generator via
	// the stream argument of NewGen).
	Seed uint64
	// Shape selects the pattern.
	Shape Shape
	// Start is the absolute cycle of the first arrival.
	Start sim.Time
	// Interval is the base inter-arrival gap in cycles (must be > 0).
	Interval sim.Time
	// Count is the total number of arrivals the generator emits.
	Count int

	// StepAt/StepInterval: for ShapeStep, arrivals at or after StepAt
	// use StepInterval as the gap instead of Interval.
	StepAt       sim.Time
	StepInterval sim.Time

	// SpikeAt/SpikeLen: for ShapeSpike, the first arrival at or after
	// SpikeAt is followed by SpikeLen-1 arrivals with zero gap.
	SpikeAt  sim.Time
	SpikeLen int

	// Jitter spreads each gap by a deterministic ±Jitter fraction drawn
	// from the seeded stream (0 disables; values are clamped to [0,1]).
	Jitter float64
}

// Gen is a deterministic open-loop burst generator: Next returns
// absolute arrival times. Open-loop means the schedule does not react
// to completions — a slow service falls behind the schedule instead of
// silently throttling the offered load (coordinated omission).
type Gen struct {
	cfg BurstConfig
	rng *sim.Rand

	t       sim.Time
	i       int
	spiking int
	spiked  bool
}

// NewGen builds a generator. stream decorrelates multiple generators
// sharing one seed (use the client index) without correlating their
// jitter draws.
func NewGen(cfg BurstConfig, stream uint64) *Gen {
	if cfg.Interval == 0 {
		cfg.Interval = 1
	}
	if cfg.Shape == ShapeStep && cfg.StepInterval == 0 {
		cfg.StepInterval = cfg.Interval
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.Jitter > 1 {
		cfg.Jitter = 1
	}
	return &Gen{
		cfg: cfg,
		rng: sim.NewRand(sim.Hash(cfg.Seed, 0xb5b5b5b5, stream)),
		t:   cfg.Start,
	}
}

// Next returns the next absolute arrival time, ok=false once Count
// arrivals have been emitted.
func (g *Gen) Next() (at sim.Time, ok bool) {
	if g.i >= g.cfg.Count {
		return 0, false
	}
	if g.i == 0 {
		g.i++
		return g.t, true
	}
	gap := g.gap()
	if g.cfg.Jitter > 0 {
		f := 1 + (g.rng.Float64()*2-1)*g.cfg.Jitter
		gap = sim.Time(float64(gap) * f)
	}
	g.t += gap
	g.i++
	return g.t, true
}

// gap picks the shape's base inter-arrival gap for the next emission.
func (g *Gen) gap() sim.Time {
	c := g.cfg
	switch c.Shape {
	case ShapeStep:
		if g.t >= c.StepAt {
			return c.StepInterval
		}
	case ShapeSpike:
		if g.spiking > 0 {
			g.spiking--
			return 0
		}
		if !g.spiked && g.t >= c.SpikeAt {
			g.spiked = true
			if c.SpikeLen > 1 {
				g.spiking = c.SpikeLen - 2 // this zero gap plus spiking more
				return 0
			}
		}
	}
	return c.Interval
}

// Emitted reports how many arrivals the generator has produced.
func (g *Gen) Emitted() int { return g.i }
