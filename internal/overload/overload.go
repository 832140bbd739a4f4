// Package overload holds the pure, deterministic state machines of the
// overload-control subsystem (docs/OVERLOAD.md): the shed controller
// that rejects lowest-priority work first once queue depth crosses its
// watermarks, the circuit breaker that fails fast after consecutive
// deadline misses, and the bounded retry budget clients apply to
// overload refusals.
//
// Nothing in this package schedules events or draws randomness: every
// decision is a pure function of (configuration, queue depth, sim
// clock), so overload control composes with the determinism contract —
// identical runs make identical shed/trip decisions. Time-based
// breaker transitions happen lazily on the next query instead of via
// timers, so an idle breaker costs zero scheduled events.
package overload

import "repro/internal/sim"

// Priority classes the shed controller discriminates on. Under
// pressure the lowest class is rejected first; PriorityHigh is shed
// only when the high watermark is crossed too... never: control-plane
// work (session teardown) must always get through.
type Priority uint8

// Priorities, lowest first.
const (
	// PriorityLow marks work that is cheapest to lose: new session
	// establishment, optional maintenance.
	PriorityLow Priority = iota
	// PriorityNormal marks regular data-path requests.
	PriorityNormal
	// PriorityHigh marks control-plane work that must not be shed
	// (e.g. session close — shedding it would leak server state).
	PriorityHigh

	numPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	}
	return "unknown"
}

// ShedConfig parameterizes a Shedder. The zero value sheds nothing.
type ShedConfig struct {
	// LowWatermark is the queue depth at which PriorityLow work is
	// rejected (0 disables shedding entirely).
	LowWatermark int
	// HighWatermark is the queue depth at which PriorityNormal work is
	// rejected too; PriorityHigh is never shed. Zero means normal work
	// is never shed.
	HighWatermark int
}

// Enabled reports whether the configuration sheds anything at all.
func (c ShedConfig) Enabled() bool { return c.LowWatermark > 0 || c.HighWatermark > 0 }

// Shedder is the per-service shed controller: fed the service's
// current queue depth (the registry-sampled dtu_rx_queued series
// samples the same quantity), it decides admission per priority
// class.
type Shedder struct {
	cfg ShedConfig

	// Sheds counts rejections per priority class (observability; the
	// caller owns any metric export).
	Sheds [numPriorities]uint64
}

// NewShedder builds a shed controller. A HighWatermark below
// LowWatermark (but nonzero) is lifted to LowWatermark: the classes
// must shed in priority order.
func NewShedder(cfg ShedConfig) *Shedder {
	if cfg.HighWatermark > 0 && cfg.HighWatermark < cfg.LowWatermark {
		cfg.HighWatermark = cfg.LowWatermark
	}
	return &Shedder{cfg: cfg}
}

// Admit decides whether work of class pr is admitted at the given
// queue depth, counting rejections.
func (s *Shedder) Admit(depth int, pr Priority) bool {
	c := s.cfg
	shed := false
	switch pr {
	case PriorityLow:
		shed = c.LowWatermark > 0 && depth >= c.LowWatermark
	case PriorityNormal:
		shed = c.HighWatermark > 0 && depth >= c.HighWatermark
	}
	if shed {
		if pr < numPriorities {
			s.Sheds[pr]++
		}
		return false
	}
	return true
}

// ShedCount sums rejections across all priority classes.
func (s *Shedder) ShedCount() uint64 {
	var n uint64
	for _, v := range s.Sheds {
		n += v
	}
	return n
}

// State is a circuit-breaker state.
type State uint8

// Breaker states.
const (
	// StateClosed admits everything; consecutive failures are counted.
	StateClosed State = iota
	// StateOpen fails everything fast until the open window elapses.
	StateOpen
	// StateHalfOpen admits probes; enough successes close the breaker,
	// any failure re-opens it.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker defaults, used where BreakerConfig leaves fields zero.
const (
	DefaultFailThreshold           = 3
	DefaultOpenFor        sim.Time = 1 << 16
	DefaultHalfOpenProbes          = 1
)

// BreakerConfig parameterizes a circuit breaker.
type BreakerConfig struct {
	// FailThreshold is the number of consecutive deadline misses that
	// trips the breaker (default DefaultFailThreshold).
	FailThreshold int
	// OpenFor is how many cycles a tripped breaker stays open before
	// probing again (default DefaultOpenFor).
	OpenFor sim.Time
	// HalfOpenProbes is the number of consecutive successes in
	// half-open that close the breaker again (default
	// DefaultHalfOpenProbes).
	HalfOpenProbes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.OpenFor <= 0 {
		c.OpenFor = DefaultOpenFor
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = DefaultHalfOpenProbes
	}
	return c
}

// Breaker is a deterministic circuit breaker keyed to the simulated
// clock. The open→half-open transition happens lazily when the state
// is next queried, so a breaker schedules no events of its own.
type Breaker struct {
	cfg BreakerConfig

	state     State
	fails     int
	successes int
	openedAt  sim.Time
	opens     uint64
}

// NewBreaker builds a breaker with defaults filled in.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State returns the breaker state as of now, applying the lazy
// open→half-open transition.
func (b *Breaker) State(now sim.Time) State {
	if b.state == StateOpen && now >= b.openedAt+b.cfg.OpenFor {
		b.state = StateHalfOpen
		b.successes = 0
	}
	return b.state
}

// Allow reports whether a call may proceed now: anything but open.
func (b *Breaker) Allow(now sim.Time) bool { return b.State(now) != StateOpen }

// OpenRemaining returns the cycles until an open breaker starts
// probing again, zero if it is not open. The supervisor uses it to
// hold restarts while the breaker is open (restart-storm suppression).
func (b *Breaker) OpenRemaining(now sim.Time) sim.Time {
	if b.State(now) != StateOpen {
		return 0
	}
	return b.openedAt + b.cfg.OpenFor - now
}

// Success records a completed call.
func (b *Breaker) Success(now sim.Time) {
	switch b.State(now) {
	case StateClosed:
		b.fails = 0
	case StateHalfOpen:
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			b.state = StateClosed
			b.fails = 0
		}
	}
	// A success while open belongs to a call admitted before the trip;
	// it carries no information about the service now and is ignored.
}

// Failure records a deadline miss.
func (b *Breaker) Failure(now sim.Time) {
	switch b.State(now) {
	case StateClosed:
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.trip(now)
		}
	case StateHalfOpen:
		b.trip(now)
	}
}

func (b *Breaker) trip(now sim.Time) {
	b.state = StateOpen
	b.openedAt = now
	b.opens++
	b.fails = 0
	b.successes = 0
}

// Opens counts how often the breaker tripped.
func (b *Breaker) Opens() uint64 { return b.opens }

// RetryBudget defaults.
const (
	DefaultRetryAttempts          = 3
	DefaultRetryBackoff  sim.Time = 256
)

// RetryBudget is a bounded, deterministic retry policy for overload
// refusals: a fixed number of attempts with capped exponential
// backoff — never an unbounded loop, so a persistently overloaded
// service turns into a clean error instead of amplified load.
type RetryBudget struct {
	attempts int
	delay    sim.Time
	max      sim.Time
	used     int
}

// NewRetryBudget builds a budget of n retries starting at backoff
// cycles, doubling per retry, capped at maxBackoff. Zero arguments
// pick the defaults; maxBackoff zero caps at 8× the initial backoff.
func NewRetryBudget(n int, backoff, maxBackoff sim.Time) RetryBudget {
	if n <= 0 {
		n = DefaultRetryAttempts
	}
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	if maxBackoff <= 0 {
		maxBackoff = backoff * 8
	}
	return RetryBudget{attempts: n, delay: backoff, max: maxBackoff}
}

// Next consumes one retry: it returns the backoff to sleep before the
// attempt, or ok=false when the budget is exhausted.
func (r *RetryBudget) Next() (delay sim.Time, ok bool) {
	if r.used >= r.attempts {
		return 0, false
	}
	r.used++
	delay = r.delay
	if r.delay >= r.max/2 {
		r.delay = r.max
	} else {
		r.delay *= 2
	}
	return delay, true
}

// Used reports the retries consumed so far.
func (r *RetryBudget) Used() int { return r.used }
