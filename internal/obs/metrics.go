package obs

import (
	"fmt"
	"io"
	"strings"
)

// The metrics registry: deterministic counters. It is the aggregate
// companion to the event stream — events answer "what happened at
// cycle N", metrics answer "how much of it happened" without retaining
// the stream. Every reader (the witness, captures, m3sim -stats) reads
// end-of-run values, so the registry keeps no time series and
// schedules no engine events: a run with metrics registered executes
// the same events as one without.
//
// Determinism contract. A metric is identified by (name, index); names
// are package-level constants in the instrumented packages (m3vet:
// obsname) and registration order is the deterministic order the
// simulation reaches each site in, so Snapshot renders byte-identical
// output for identical runs. Values carry only simulation-derived
// quantities — never wall-clock time.
//
// Mutation methods (Inc, Add) sit under the same Tracer.On() guard as
// Emit (m3vet: obsguard): a disabled tracer costs one branch per site.

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

// metricKey identifies one registry entry.
type metricKey struct {
	name string
	idx  int
}

// Entry is one registered counter, exposed for deterministic read-side
// iteration (reports, the m3sim -stats table, the bench JSON).
type Entry struct {
	Name string
	// Idx distinguishes instances of a vector metric (a PE id, a link
	// index, a syscall opcode); -1 marks a scalar.
	Idx int

	c Counter
}

// Value returns the entry's count.
func (e *Entry) Value() int64 { return int64(e.c.v) }

// Registry holds the metrics of one run in stable registration order.
// Like the Tracer it is engine-local simulation state: no locking, and
// a nil *Registry is valid and permanently inert.
type Registry struct {
	entries []*Entry
	index   map[metricKey]*Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]*Entry)}
}

// Counter returns the counter (name, idx), registering it on first
// use. idx is -1 for a scalar. Nil registries return a nil (inert)
// counter.
func (r *Registry) Counter(name string, idx int) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{name, idx}
	e, ok := r.index[k]
	if !ok {
		e = &Entry{Name: name, Idx: idx}
		r.index[k] = e
		r.entries = append(r.entries, e)
	}
	return &e.c
}

// Entries returns all metrics in registration order.
func (r *Registry) Entries() []*Entry {
	if r == nil {
		return nil
	}
	return r.entries
}

// WriteSnapshot renders every metric in registration order as a plain
// deterministic text table:
//
//	# m3 metrics v1
//	counter dtu_credit_stalls_total[2] 17
//	counter kernel_syscalls_total 412
//
// Scalars (idx -1) omit the [idx] suffix. The snapshot is the unit the
// determinism witness hashes.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# m3 metrics v1"); err != nil {
		return err
	}
	for _, e := range r.Entries() {
		name := e.Name
		if e.Idx >= 0 {
			name = fmt.Sprintf("%s[%d]", e.Name, e.Idx)
		}
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, e.Value()); err != nil {
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
