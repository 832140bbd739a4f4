package obs

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Deterministic SLO engine: sim-clock windowed objectives with
// multi-window burn-rate evaluation (docs/OBSERVABILITY.md). Like the
// metrics registry, the set is engine-local, nil-safe, registered in
// deterministic order, and snapshot-stable. It schedules no engine
// events: windows rotate lazily on observation timestamps, so an
// unobserved objective costs nothing and a run without observations is
// bit-identical to a run without the SLO layer at all.

// SLOState is an objective's health.
type SLOState uint8

const (
	// SLOHealthy: burn rates below both thresholds.
	SLOHealthy SLOState = iota
	// SLOBreached: both the long and short window burn rates exceed
	// their thresholds — the error budget is being consumed fast
	// enough, for long enough, to page (multi-window burn-rate alert).
	SLOBreached
)

func (s SLOState) String() string {
	if s == SLOBreached {
		return "BREACHED"
	}
	return "healthy"
}

// SLOConfig parameterizes one objective.
type SLOConfig struct {
	// Objective is the target good fraction, e.g. 0.99 or 0.999.
	Objective float64
	// LatencyBound, if nonzero, makes this a latency objective: an
	// observation is good iff it succeeded AND finished within the
	// bound. Zero makes it an availability objective (good iff ok).
	LatencyBound sim.Time
	// Window is the long evaluation window in cycles. Required.
	Window sim.Time
	// Buckets splits the window ring; more buckets, sharper rotation.
	// Default 32.
	Buckets int
	// ShortBuckets is the short-window length in buckets (the fast
	// burn signal). Default Buckets/8, minimum 1.
	ShortBuckets int
	// SlowBurn/FastBurn are the burn-rate thresholds for the long and
	// short windows. Burn rate 1.0 consumes exactly the error budget
	// over the window. Defaults 6 and 14.4 (the classic page-worthy
	// multi-window pair).
	SlowBurn, FastBurn float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Buckets <= 0 {
		c.Buckets = 32
	}
	if c.ShortBuckets <= 0 {
		c.ShortBuckets = c.Buckets / 8
	}
	if c.ShortBuckets < 1 {
		c.ShortBuckets = 1
	}
	if c.ShortBuckets > c.Buckets {
		c.ShortBuckets = c.Buckets
	}
	if c.SlowBurn == 0 {
		c.SlowBurn = 6
	}
	if c.FastBurn == 0 {
		c.FastBurn = 14.4
	}
	if c.Window <= 0 {
		c.Window = 1 << 20
	}
	return c
}

// BreachEvent is delivered to subscribers on every state transition.
type BreachEvent struct {
	Name      string
	At        sim.Time
	State     SLOState
	BurnLong  float64
	BurnShort float64
}

// sloBucket is one ring slot of windowed counts.
type sloBucket struct {
	good, total uint64
}

// SLO is one registered objective.
type SLO struct {
	name string
	cfg  SLOConfig

	ring        []sloBucket
	cur         int64 // absolute bucket index of ring head, -1 before first obs
	good, total uint64
	state       SLOState
	transitions uint64
	subs        []func(BreachEvent)
}

// Name returns the objective's registered name.
func (o *SLO) Name() string { return o.name }

// Config returns the objective's (default-filled) configuration.
func (o *SLO) Config() SLOConfig {
	if o == nil {
		return SLOConfig{}
	}
	return o.cfg
}

// State returns the current health.
func (o *SLO) State() SLOState {
	if o == nil {
		return SLOHealthy
	}
	return o.state
}

// Subscribe registers a breach-transition callback, invoked
// synchronously (in simulation context) on every state change.
// Callback order is registration order.
func (o *SLO) Subscribe(fn func(BreachEvent)) {
	if o == nil {
		return
	}
	o.subs = append(o.subs, fn)
}

// bucketWidth returns the cycles per ring slot.
func (o *SLO) bucketWidth() sim.Time {
	w := o.cfg.Window / sim.Time(o.cfg.Buckets)
	if w < 1 {
		w = 1
	}
	return w
}

// rotate advances the ring so that the bucket for time at is current,
// zeroing skipped slots.
func (o *SLO) rotate(at sim.Time) {
	idx := int64(at / o.bucketWidth())
	if o.cur < 0 {
		o.cur = idx
		return
	}
	if idx-o.cur >= int64(len(o.ring)) {
		// The whole window elapsed since the last observation.
		for i := range o.ring {
			o.ring[i] = sloBucket{}
		}
		o.cur = idx
		return
	}
	for o.cur < idx {
		o.cur++
		o.ring[int(o.cur)%len(o.ring)] = sloBucket{}
	}
}

// Observe records one observation at simulated time at. For latency
// objectives, good = ok && latency <= bound; for availability
// objectives the latency is ignored.
func (o *SLO) Observe(at sim.Time, latency sim.Time, ok bool) {
	if o == nil {
		return
	}
	good := ok
	if o.cfg.LatencyBound > 0 {
		good = ok && latency <= o.cfg.LatencyBound
	}
	o.rotate(at)
	b := &o.ring[int(o.cur)%len(o.ring)]
	b.total++
	o.total++
	if good {
		b.good++
		o.good++
	}
	o.evaluate(at)
}

// burn computes the burn rate over the last n buckets: the observed
// bad fraction divided by the budgeted bad fraction. Windows with no
// observations burn nothing.
func (o *SLO) burn(n int) float64 {
	var good, total uint64
	for i := 0; i < n; i++ {
		b := o.ring[int(o.cur-int64(i)+int64(len(o.ring))*4)%len(o.ring)]
		good += b.good
		total += b.total
	}
	if total == 0 {
		return 0
	}
	budget := 1 - o.cfg.Objective
	if budget <= 0 {
		budget = 1e-9
	}
	bad := float64(total-good) / float64(total)
	return bad / budget
}

// evaluate recomputes the multi-window state and notifies subscribers
// on transitions.
func (o *SLO) evaluate(at sim.Time) {
	long := o.burn(o.cfg.Buckets)
	short := o.burn(o.cfg.ShortBuckets)
	next := o.state
	if long >= o.cfg.SlowBurn && short >= o.cfg.FastBurn {
		next = SLOBreached
	} else if long < o.cfg.SlowBurn {
		next = SLOHealthy
	}
	if next == o.state {
		return
	}
	o.state = next
	o.transitions++
	ev := BreachEvent{Name: o.name, At: at, State: next, BurnLong: long, BurnShort: short}
	for _, fn := range o.subs {
		fn(ev)
	}
}

// BurnRates returns the current (long, short) burn rates.
func (o *SLO) BurnRates() (float64, float64) {
	if o == nil || o.cur < 0 {
		return 0, 0
	}
	return o.burn(o.cfg.Buckets), o.burn(o.cfg.ShortBuckets)
}

// Counts returns lifetime (good, total) observation counts.
func (o *SLO) Counts() (uint64, uint64) {
	if o == nil {
		return 0, 0
	}
	return o.good, o.total
}

// Transitions returns the number of state changes so far.
func (o *SLO) Transitions() uint64 {
	if o == nil {
		return 0
	}
	return o.transitions
}

// SLOSet is the per-tracer objective registry. Registration order is
// snapshot and iteration order; names must be unique and — enforced by
// m3vet's obsname rule — package-level constants, so the set of
// objectives is a static property of the build, never data-dependent.
type SLOSet struct {
	slos  []*SLO
	index map[string]*SLO
}

// NewSLOSet creates an empty set.
func NewSLOSet() *SLOSet {
	return &SLOSet{index: make(map[string]*SLO)}
}

// Objective registers (or returns the already-registered) objective
// with the given package-constant name. Re-registration with a
// different config panics: an SLO's definition is part of the contract.
func (s *SLOSet) Objective(name string, cfg SLOConfig) *SLO {
	if s == nil {
		return nil
	}
	if o := s.index[name]; o != nil {
		if o.cfg != cfg.withDefaults() {
			panic(fmt.Sprintf("obs: SLO %q re-registered with different config", name))
		}
		return o
	}
	c := cfg.withDefaults()
	o := &SLO{name: name, cfg: c, ring: make([]sloBucket, c.Buckets), cur: -1}
	s.slos = append(s.slos, o)
	s.index[name] = o
	return o
}

// Get returns the named objective or nil.
func (s *SLOSet) Get(name string) *SLO {
	if s == nil {
		return nil
	}
	return s.index[name]
}

// All returns the objectives in registration order.
func (s *SLOSet) All() []*SLO {
	if s == nil {
		return nil
	}
	return s.slos
}

// ObserveAll feeds one observation to every objective (each judges
// goodness by its own bound). This is how the critical-path engine
// fans completed requests into the set.
func (s *SLOSet) ObserveAll(at sim.Time, latency sim.Time, ok bool) {
	if s == nil {
		return
	}
	for _, o := range s.slos {
		o.Observe(at, latency, ok)
	}
}

// WriteSnapshot writes the deterministic text snapshot: one line per
// objective in registration order.
func (s *SLOSet) WriteSnapshot(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# m3 slo v1 objectives=%d\n", len(s.All())); err != nil {
		return err
	}
	for _, o := range s.All() {
		long, short := o.BurnRates()
		if _, err := fmt.Fprintf(w, "slo %s objective=%g good=%d total=%d burn_long=%.3f burn_short=%.3f transitions=%d state=%s\n",
			o.name, o.cfg.Objective, o.good, o.total, long, short, o.transitions, o.state); err != nil {
			return err
		}
	}
	return nil
}
