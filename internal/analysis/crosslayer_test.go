package analysis

import "testing"

// crossDeps are empty stand-in packages for the import-graph fixtures.
var crossDeps = map[string]map[string]string{
	"repro/internal/core": {"core.go": "package core\n"},
	"repro/internal/noc":  {"noc.go": "package noc\n"},
	"repro/internal/dtu":  {"dtu.go": "package dtu\n"},
}

func TestCrossLayerFlagsKernelImports(t *testing.T) {
	src := `package tile

import (
	_ "repro/internal/core"
	_ "repro/internal/noc"
)
`
	got := runOn(t, []*Analyzer{CrossLayer}, "repro/internal/tile", map[string]string{"f.go": src}, crossDeps)
	// tile may use the NoC (it instantiates the network) but must not
	// reach into the kernel.
	checkFindings(t, got, []finding{{4, "crosslayer"}})
}

func TestCrossLayerFlagsWorkloadViolations(t *testing.T) {
	src := `package workload

import (
	_ "repro/internal/core"
	_ "repro/internal/dtu"
	_ "repro/internal/noc"
)
`
	got := runOn(t, []*Analyzer{CrossLayer}, "repro/internal/workload", map[string]string{"f.go": src}, crossDeps)
	checkFindings(t, got, []finding{
		{4, "crosslayer"}, // kernel internals
		{5, "crosslayer"}, // raw DTU endpoints
		{6, "crosslayer"}, // NoC
	})
}

func TestCrossLayerFlagsNoCOutsideHardware(t *testing.T) {
	src := `package m3

import _ "repro/internal/noc"
`
	got := runOn(t, []*Analyzer{CrossLayer}, "repro/internal/m3", map[string]string{"f.go": src}, crossDeps)
	checkFindings(t, got, []finding{{3, "crosslayer"}})
}

func TestCrossLayerAllowsHardwareAndHarnessEdges(t *testing.T) {
	dtuSrc := `package dtu

import _ "repro/internal/noc"
`
	got := runOn(t, []*Analyzer{CrossLayer}, "repro/internal/dtu", map[string]string{"f.go": dtuSrc},
		map[string]map[string]string{"repro/internal/noc": crossDeps["repro/internal/noc"]})
	checkFindings(t, got, nil)

	benchSrc := `package bench

import _ "repro/internal/core"
`
	// The bench harness (like cmd/ and examples/) boots the platform
	// host-side and may hold the kernel object.
	got = runOn(t, []*Analyzer{CrossLayer}, "repro/internal/bench", map[string]string{"f.go": benchSrc},
		map[string]map[string]string{"repro/internal/core": crossDeps["repro/internal/core"]})
	checkFindings(t, got, nil)
}

// Mutation fixture from the rule audit (docs/ANALYSIS.md): a workload
// marks a failed pipe child with the kernel's crash exit code, which
// couples a user program to the kernel package instead of the syscall
// ABI. It builds and passes every tier-1 test; only crosslayer flags
// it.
func TestCrossLayerMutationWorkloadReadsKernelConstant(t *testing.T) {
	src := `package workload

import "repro/internal/core"

type Env struct{ code int64 }

func (e *Env) SetExit(code int64) { e.code = code }

func pipeChild(child *Env, err error) {
	if err != nil {
		child.SetExit(core.CrashExitCode)
	}
}
`
	deps := map[string]map[string]string{
		"repro/internal/core": {"objects.go": "package core\n\nconst CrashExitCode int64 = -2\n"},
	}
	got := runOn(t, []*Analyzer{CrossLayer}, "repro/internal/workload", map[string]string{"m3os.go": src}, deps)
	checkFindings(t, got, []finding{{3, "crosslayer"}})
}
