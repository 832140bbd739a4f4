package analysis

import "testing"

// registryOverlay is a minimal obs package exposing the metric
// registration surface for fixture dependencies.
var registryOverlay = map[string]string{"obs.go": `package obs

type Counter struct{}

func (c *Counter) Inc() {}

type Registry struct{}

func (r *Registry) Counter(name string, idx int) *Counter { return nil }
`}

func TestMetricNameFlagsDynamicNames(t *testing.T) {
	src := `package dtu

import (
	"fmt"

	"repro/internal/obs"
)

func f(m *obs.Registry, node int) {
	m.Counter("dtu_stalls_total", node)             // line 10: literal
	name := "dtu_retries_total"
	m.Counter(name, node)                           // line 12: local
	m.Counter(fmt.Sprintf("dtu_rx_%d", node), node) // line 13: computed
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": registryOverlay})
	checkFindings(t, got, []finding{
		{10, "obsname"}, {12, "obsname"}, {13, "obsname"}})
}

func TestMetricNameAllowsPackageConstants(t *testing.T) {
	src := `package dtu

import "repro/internal/obs"

const MStalls = "dtu_stalls_total"

func f(m *obs.Registry, node int) {
	m.Counter(MStalls, node)
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": registryOverlay})
	checkFindings(t, got, nil)
}

func TestMetricNameAllowsImportedConstants(t *testing.T) {
	// A bench harness registering a metric under another package's
	// exported name constant is fine: the name still has exactly one
	// compile-time definition site.
	dtuOverlay := map[string]string{"dtu.go": `package dtu

const MStalls = "dtu_stalls_total"
`}
	src := `package bench

import (
	"repro/internal/dtu"
	"repro/internal/obs"
)

func f(m *obs.Registry) {
	m.Counter(dtu.MStalls, 0)
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/bench",
		map[string]string{"f.go": src},
		map[string]map[string]string{
			"repro/internal/obs": registryOverlay,
			"repro/internal/dtu": dtuOverlay,
		})
	checkFindings(t, got, nil)
}

func TestMetricNameFlagsFunctionScopedConst(t *testing.T) {
	// A const declared inside a function body is still a fixed string,
	// but the rule demands package scope: one definition site per
	// metric, visible in the package's const block.
	src := `package dtu

import "repro/internal/obs"

func f(m *obs.Registry) {
	const name = "dtu_stalls_total"
	m.Counter(name, 0)
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/dtu",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": registryOverlay})
	checkFindings(t, got, []finding{{7, "obsname"}})
}

func TestMetricNameIgnoresUnrelatedCounters(t *testing.T) {
	// Same method names on a foreign type are not registrations.
	src := `package m3fs

type reg struct{}

func (r *reg) Counter(name string, idx int) int { return 0 }
func f(r *reg)                                  { r.Counter("x", 0) }
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/m3fs",
		map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}

// Mutation fixture from the rule audit (docs/ANALYSIS.md, MN5): the
// DTU's admission-refusal counter is named per endpoint. It is
// registered only when a watermark refuses a request, and no witness
// or golden hashes the metrics of such a run, so every tier-1 test
// passes; only obsname flags it.
func TestMetricNameMutationShedCounterPerService(t *testing.T) {
	src := `package dtu

import (
	"fmt"

	"repro/internal/obs"
)

const MAdmitRefusals = "dtu_admit_refusals_total"

func admit(m *obs.Registry, node, ep int) {
	m.Counter(fmt.Sprintf("%s_ep%d", MAdmitRefusals, ep), node).Inc()
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/dtu",
		map[string]string{"overload.go": src},
		map[string]map[string]string{"repro/internal/obs": registryOverlay})
	checkFindings(t, got, []finding{{12, "obsname"}})
}

// sloOverlay is a minimal obs package exposing the SLO registration
// surface for fixture dependencies.
var sloOverlay = map[string]string{"obs.go": `package obs

type SLO struct{}

type SLOConfig struct {
	Objective float64
}

type SLOSet struct{}

func (s *SLOSet) Objective(name string, cfg SLOConfig) *SLO { return nil }
`}

func TestSLONameFlagsDynamicNames(t *testing.T) {
	src := `package bench

import (
	"fmt"

	"repro/internal/obs"
)

func f(s *obs.SLOSet, shard int) {
	s.Objective("kv_p99", obs.SLOConfig{})                       // line 10: literal
	name := "kv_avail"
	s.Objective(name, obs.SLOConfig{})                           // line 12: local
	s.Objective(fmt.Sprintf("kv_%d", shard), obs.SLOConfig{})    // line 13: computed
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/bench",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": sloOverlay})
	checkFindings(t, got, []finding{
		{10, "obsname"}, {12, "obsname"}, {13, "obsname"}})
}

func TestSLONameAllowsPackageConstants(t *testing.T) {
	src := `package bench

import "repro/internal/obs"

const SLOTail = "kv_p99"

func f(s *obs.SLOSet) {
	s.Objective(SLOTail, obs.SLOConfig{Objective: 0.99})
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/bench",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/obs": sloOverlay})
	checkFindings(t, got, nil)
}

func TestSLONameIgnoresUnrelatedObjectives(t *testing.T) {
	// Same method name on a foreign type is not a registration.
	src := `package m3fs

type planner struct{}

func (p *planner) Objective(name string, weight int) int { return 0 }
func f(p *planner)                                       { p.Objective("x", 0) }
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/m3fs",
		map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}

// Mutation fixture from the rule audit (docs/ANALYSIS.md): E-tail's
// availability objective is named per workload. No golden holds that
// objective's name, so every tier-1 test passes; only obsname flags
// it.
func TestSLONameMutationObjectivePerWorkload(t *testing.T) {
	src := `package bench

import "repro/internal/obs"

const etailSLOAvail = "etail_availability"

type ETailWorkload struct{ Name string }

func runETailM3(w ETailWorkload) {
	slos := &obs.SLOSet{}
	slos.Objective(etailSLOAvail+"_"+w.Name, obs.SLOConfig{Objective: 0.999})
}
`
	got := runOn(t, []*Analyzer{ObsName}, "repro/internal/bench",
		map[string]string{"etail.go": src},
		map[string]map[string]string{"repro/internal/obs": sloOverlay})
	checkFindings(t, got, []finding{{11, "obsname"}})
}
