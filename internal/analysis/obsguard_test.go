package analysis

import "testing"

// obsOverlay is a minimal obs package exposing the guarded producer
// surface for fixture dependencies.
var obsOverlay = map[string]string{"obs.go": `package obs

type Event struct{ Arg0 uint64 }

type HistID int

type Histogram struct{}

func (h *Histogram) Observe(v uint64) {}

type Tracer struct{}

func (t *Tracer) On() bool              { return t != nil }
func (t *Tracer) Emit(ev Event)         {}
func (t *Tracer) Hist(id HistID) *Histogram { return nil }
func (t *Tracer) NewSpan() uint64       { return 0 }
func (t *Tracer) Histograms() []*Histogram { return nil }
`}

func TestObsGuardFlagsUnguardedSites(t *testing.T) {
	src := `package dtu

import "repro/internal/obs"

type DTU struct{ obs *obs.Tracer }

func (d *DTU) send() {
	d.obs.Emit(obs.Event{})               // line 8: unguarded
	d.obs.Hist(0).Observe(1)              // line 9: unguarded (both calls)
}
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": obsOverlay})
	checkFindings(t, got, []finding{{8, "obsguard"}, {9, "obsguard"}, {9, "obsguard"}})
}

func TestObsGuardAcceptsGuardedSites(t *testing.T) {
	src := `package dtu

import "repro/internal/obs"

type DTU struct{ obs *obs.Tracer }

func (d *DTU) send() {
	if tr := d.obs; tr.On() {
		span := tr.NewSpan()
		tr.Emit(obs.Event{Arg0: span})
		tr.Hist(0).Observe(1)
	}
}

func (d *DTU) recv() {
	if d.obs.On() {
		d.obs.Emit(obs.Event{})
	}
}
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": obsOverlay})
	checkFindings(t, got, nil)
}

func TestObsGuardScopedToSimFacing(t *testing.T) {
	// The bench harness and the CLIs construct tracers on purpose and
	// read them after the run; only simulation-facing packages carry
	// the zero-overhead obligation.
	src := `package bench

import "repro/internal/obs"

func report(tr *obs.Tracer) {
	tr.Emit(obs.Event{})
	tr.Hist(0).Observe(1)
}
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/bench",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": obsOverlay})
	checkFindings(t, got, nil)
}

func TestObsGuardIgnoresReadSide(t *testing.T) {
	// Read-side accessors are not producers; a guard on an unrelated
	// condition does not count for a producer inside it.
	src := `package dtu

import "repro/internal/obs"

type DTU struct{ obs *obs.Tracer }

func (d *DTU) stats(ready bool) []*obs.Histogram {
	if ready {
		d.obs.Emit(obs.Event{}) // line 9: guard without On() does not count
	}
	return d.obs.Histograms()
}
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": obsOverlay})
	checkFindings(t, got, []finding{{9, "obsguard"}})
}

func TestObsGuardIgnoresUnrelatedNames(t *testing.T) {
	// A local Emit/Observe is not the obs package's producer surface.
	src := `package dtu

type queue struct{}

func (q *queue) Emit()            {}
func (q *queue) Observe(v uint64) {}
func f(q *queue)                  { q.Emit(); q.Observe(1) }
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/dtu",
		map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}

func TestObsGuardFlagsUnguardedMetricMutations(t *testing.T) {
	// Counter updates are producers too: with the tracer off not
	// even a nil-safe Inc may run on the hot path.
	metricsOverlay := map[string]string{"obs.go": `package obs

type Counter struct{}

func (c *Counter) Inc()         {}
func (c *Counter) Add(n uint64) {}

type Tracer struct{}

func (t *Tracer) On() bool { return t != nil }
`}
	src := `package dtu

import "repro/internal/obs"

type DTU struct {
	obs *obs.Tracer
	c   *obs.Counter
}

func (d *DTU) send() {
	d.c.Inc()  // line 11: unguarded
	d.c.Add(3) // line 12: unguarded
	if tr := d.obs; tr.On() {
		d.c.Add(2) // guarded: fine
	}
}
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": metricsOverlay})
	checkFindings(t, got, []finding{{11, "obsguard"}, {12, "obsguard"}})
}

// Mutation fixtures from the rule audit (docs/ANALYSIS.md): the
// kernel's capability-drop trace and its respawn trace lose their
// On() guard. Emit and the counters are nil-safe, so a run without a
// tracer still behaves the same and every tier-1 test passes, but each
// site now builds its event on every execution; only obsguard flags
// them.
func TestObsGuardMutationUnguardedKernelTraces(t *testing.T) {
	src := `package core

import "repro/internal/obs"

type Kernel struct{ obs *obs.Tracer }

func (k *Kernel) onDrop(sel uint64) {
	tr := k.obs
	{
		tr.Emit(obs.Event{Arg0: sel})
	}
}

func (k *Kernel) traceRespawn(outcome uint64) {
	tr := k.obs
	{
		tr.Emit(obs.Event{Arg0: outcome})
	}
}
`
	got := runOn(t, []*Analyzer{ObsGuard}, "repro/internal/core",
		map[string]string{"syscalls.go": src},
		map[string]map[string]string{"repro/internal/obs": obsOverlay})
	checkFindings(t, got, []finding{{10, "obsguard"}, {17, "obsguard"}})
}
