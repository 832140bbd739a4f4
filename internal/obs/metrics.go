package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// The metrics registry: deterministic counters, gauges, and
// sim-clock-sampled time series. It is the aggregate companion to the
// event stream — events answer "what happened at cycle N", metrics
// answer "how much of it happened" without retaining the stream.
//
// Determinism contract. A metric is identified by (name, index); names
// are package-level constants in the instrumented packages (m3vet:
// obsname) and registration order is the deterministic order the
// simulation reaches each site in, so Snapshot renders byte-identical
// output for identical runs. Values carry only simulation-derived
// quantities — never wall-clock time. Sampling is opt-in
// (StartSampler): with it off, the registry schedules no engine events
// at all, so RunStats and every trace stream stay bit-identical to a
// run without metrics. With it on, the sampler reads state but never
// mutates it, so the simulated schedule is unperturbed apart from the
// tick events themselves.
//
// Mutation methods (Inc, Add, Set) sit under the same Tracer.On()
// guard as Emit (m3vet: obsguard): a disabled tracer costs one branch
// per site.

// metricKind discriminates registry entries.
type metricKind uint8

// Registry entry kinds, in snapshot-keyword order.
const (
	KindCounter metricKind = iota
	KindGauge
	KindSeries
)

func (k metricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSeries:
		return "series"
	}
	return "metric"
}

// Counter is a monotonically increasing counter. The zero value of a
// nil pointer is a valid, permanently inert counter so call sites can
// cache the pointer unconditionally.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous signed value.
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add moves the value by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Series is a time series sampled on the simulated clock: every
// sampler tick appends source(). The ring is unbounded in simulation
// terms but bounded in practice by run length / interval.
type Series struct {
	source  func() int64
	samples []int64
}

// Samples returns the recorded samples, oldest first.
func (s *Series) Samples() []int64 {
	if s == nil {
		return nil
	}
	return s.samples
}

// Last returns the most recent sample (0 before the first tick).
func (s *Series) Last() int64 {
	if s == nil || len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// metricKey identifies one registry entry.
type metricKey struct {
	name string
	idx  int
}

// Entry is one registered metric, exposed for deterministic read-side
// iteration (reports, the m3sim -stats table, the bench JSON).
type Entry struct {
	Name string
	// Idx distinguishes instances of a vector metric (a PE id, a link
	// index, a syscall opcode); -1 marks a scalar.
	Idx  int
	Kind metricKind

	c *Counter
	g *Gauge
	s *Series
}

// Value returns the entry's scalar value (a series reports its last
// sample).
func (e *Entry) Value() int64 {
	switch e.Kind {
	case KindCounter:
		return int64(e.c.Value())
	case KindGauge:
		return e.g.Value()
	case KindSeries:
		return e.s.Last()
	}
	return 0
}

// Samples returns the series samples (nil for counters and gauges).
func (e *Entry) Samples() []int64 {
	if e.Kind != KindSeries {
		return nil
	}
	return e.s.Samples()
}

// Registry holds the metrics of one run in stable registration order.
// Like the Tracer it is engine-local simulation state: no locking, and
// a nil *Registry is valid and permanently inert.
type Registry struct {
	entries []*Entry
	index   map[metricKey]*Entry

	interval sim.Time
	sampling bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]*Entry)}
}

// register returns the entry for (name, idx), creating it with the
// given kind on first use. Re-registering with a different kind is a
// programming error and panics: the name constants are the schema.
func (r *Registry) register(name string, idx int, kind metricKind) *Entry {
	k := metricKey{name, idx}
	if e, ok := r.index[k]; ok {
		if e.Kind != kind {
			panic(fmt.Sprintf("obs: metric %s[%d] re-registered as %s (was %s)", name, idx, kind, e.Kind))
		}
		return e
	}
	e := &Entry{Name: name, Idx: idx, Kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindSeries:
		e.s = &Series{}
	}
	r.index[k] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns the counter (name, idx), registering it on first
// use. idx is -1 for a scalar. Nil registries return a nil (inert)
// counter.
func (r *Registry) Counter(name string, idx int) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, idx, KindCounter).c
}

// Gauge returns the gauge (name, idx), registering it on first use.
func (r *Registry) Gauge(name string, idx int) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, idx, KindGauge).g
}

// Series returns the sampled series (name, idx), installing source on
// first registration. The source must be a pure read of simulation
// state: it runs inside sampler ticks and must not schedule events or
// mutate anything.
func (r *Registry) Series(name string, idx int, source func() int64) *Series {
	if r == nil {
		return nil
	}
	e := r.register(name, idx, KindSeries)
	if e.s.source == nil {
		e.s.source = source
	}
	return e.s
}

// Entries returns all metrics in registration order.
func (r *Registry) Entries() []*Entry {
	if r == nil {
		return nil
	}
	return r.entries
}

// Interval returns the sampler interval (0 when sampling is off).
func (r *Registry) Interval() sim.Time {
	if r == nil {
		return 0
	}
	return r.interval
}

// StartSampler schedules the recurring sampling tick on eng: every
// `every` cycles each registered series appends one sample, in
// registration order. The tick stops rescheduling itself once the
// event queue is otherwise empty, so sampling never keeps a finished
// run alive and never schedules onto a deadlocked engine.
func (r *Registry) StartSampler(eng *sim.Engine, every sim.Time) {
	if r == nil || every == 0 || r.sampling {
		return
	}
	r.sampling = true
	r.interval = every
	var tick func()
	tick = func() {
		for _, e := range r.entries {
			if e.Kind == KindSeries && e.s.source != nil {
				e.s.samples = append(e.s.samples, e.s.source())
			}
		}
		if eng.Pending() {
			eng.Schedule(every, tick)
		}
	}
	eng.Schedule(every, tick)
}

// WriteSnapshot renders every metric in registration order as a plain
// deterministic text table:
//
//	# m3 metrics v1 interval=4096
//	counter dtu_credit_stalls_total[2] 17
//	gauge   noc_inflight 3
//	series  bench_pe_idle_cycles[0] n=4: 0 12 40 40
//
// Scalars (idx -1) omit the [idx] suffix. The snapshot is the unit the
// determinism witness hashes.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# m3 metrics v1 interval=%d\n", r.Interval()); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	for _, e := range r.entries {
		name := e.Name
		if e.Idx >= 0 {
			name = fmt.Sprintf("%s[%d]", e.Name, e.Idx)
		}
		var err error
		if e.Kind == KindSeries {
			var sb strings.Builder
			for _, v := range e.s.Samples() {
				fmt.Fprintf(&sb, " %d", v)
			}
			_, err = fmt.Fprintf(w, "series %s n=%d:%s\n", name, len(e.s.Samples()), sb.String())
		} else {
			_, err = fmt.Fprintf(w, "%s %s %d\n", e.Kind, name, e.Value())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot renders WriteSnapshot to a string.
func (r *Registry) Snapshot() string {
	var sb strings.Builder
	if err := r.WriteSnapshot(&sb); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}
