package analysis

import "testing"

// simOverlay is a minimal sim package exposing the guarded Kill entry
// point for fixture dependencies.
var simOverlay = map[string]string{"sim.go": `package sim

type Process struct{}

func (p *Process) Kill() {}

type Engine struct{}
`}

func TestFaultSiteFlagsForeignCallers(t *testing.T) {
	src := `package m3fs

import "repro/internal/sim"

func f(p *sim.Process) {
	p.Kill()
}
`
	got := runOn(t, []*Analyzer{FaultSite}, "repro/internal/m3fs",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/sim": simOverlay})
	checkFindings(t, got, []finding{{6, "faultsite"}})
}

func TestFaultSiteAllowsFaultPackage(t *testing.T) {
	src := `package fault

import "repro/internal/sim"

func f(p *sim.Process) {
	p.Kill()
}
`
	got := runOn(t, []*Analyzer{FaultSite}, "repro/internal/fault",
		map[string]string{"f.go": src},
		map[string]map[string]string{"repro/internal/sim": simOverlay})
	checkFindings(t, got, nil)
}

func TestFaultSiteAllowsOwningLayer(t *testing.T) {
	// The tile layer models the hardware consequence of a crash/reset:
	// it may kill the program process, but it may not, say, arm the
	// death watchdog.
	src := `package tile

import (
	"repro/internal/core"
	"repro/internal/sim"
)

func f(p *sim.Process, k *core.Kernel) {
	p.Kill()
	k.EnableDeathWatch()
}
`
	coreOverlay := map[string]string{"core.go": `package core

type Kernel struct{}

func (k *Kernel) EnableDeathWatch() {}
`}
	got := runOn(t, []*Analyzer{FaultSite}, "repro/internal/tile",
		map[string]string{"f.go": src},
		map[string]map[string]string{
			"repro/internal/sim":  simOverlay,
			"repro/internal/core": coreOverlay,
		})
	checkFindings(t, got, []finding{{10, "faultsite"}})
}

func TestFaultSiteIgnoresUnrelatedNames(t *testing.T) {
	// A local function that happens to be called Kill is not an entry
	// point; only the guarded packages' functions count.
	src := `package m3fs

type job struct{}

func (j *job) Kill()            {}
func (j *job) EnableFaults()    {}
func f(j *job)                  { j.Kill(); j.EnableFaults() }
`
	got := runOn(t, []*Analyzer{FaultSite}, "repro/internal/m3fs",
		map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}

// Mutation fixtures from the rule audit (docs/ANALYSIS.md): the kernel
// clears a PE's endpoint registers itself, once when respawning a
// service on a spare PE and once in place of the reap's per-endpoint
// invalidation over the NoC. Both reach into another PE's DTU without a
// message, and both pass every tier-1 test; only faultsite flags them.
func TestFaultSiteMutationKernelResetsEndpoints(t *testing.T) {
	src := `package core

import "repro/internal/tile"

type Kernel struct{}

func (k *Kernel) invalidateEP(pe *tile.PE, ep int) {}

func (k *Kernel) respawn(pe *tile.PE) {
	pe.DTU.ResetEndpoints()
}

func (k *Kernel) reapVPE(pe *tile.PE) {
	pe.DTU.ResetEndpoints()
}
`
	deps := map[string]map[string]string{
		"repro/internal/dtu":  {"dtu.go": "package dtu\n\ntype DTU struct{}\n\nfunc (d *DTU) ResetEndpoints() {}\n"},
		"repro/internal/tile": {"tile.go": "package tile\n\nimport \"repro/internal/dtu\"\n\ntype PE struct{ DTU *dtu.DTU }\n"},
	}
	got := runOn(t, []*Analyzer{FaultSite}, "repro/internal/core", map[string]string{"supervisor.go": src}, deps)
	checkFindings(t, got, []finding{{10, "faultsite"}, {14, "faultsite"}})
}
