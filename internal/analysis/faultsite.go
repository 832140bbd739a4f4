package analysis

import "go/ast"

// FaultSite confines fault injection to its package: the hooks that
// arm packet faults, DTU reliability, DRAM brownouts, PE crashes, and
// the kernel's death watchdog exist so that internal/fault can turn a
// declarative plan into a deterministic schedule — a stray call from a
// workload, a service, or the kernel itself would inject faults
// outside any plan, invisibly to the (configuration, seed) replay
// contract. Each entry point may additionally be used by the layer
// that owns the modelled hardware action (the tile layer kills a
// program and clears endpoints when a PE crashes or is reset).
var FaultSite = &Analyzer{
	Name: "faultsite",
	Doc:  "fault-injection hooks may be armed only by internal/fault",
	Run:  runFaultSite,
}

// faultPkg is the single package allowed to call every fault entry
// point.
const faultPkg = "repro/internal/fault"

// faultEntryPoints maps (defining package, function name) to the extra
// package — beyond internal/fault and the defining package itself —
// allowed to call it.
var faultEntryPoints = map[[2]string]string{
	{"repro/internal/noc", "SetFaultHook"}:      "",
	{"repro/internal/dtu", "EnableFaults"}:      "",
	{"repro/internal/dtu", "ResetEndpoints"}:    "repro/internal/tile",
	{"repro/internal/mem", "SetFaultDelay"}:     "",
	{"repro/internal/tile", "Crash"}:            "",
	{"repro/internal/sim", "Kill"}:              "repro/internal/tile",
	{"repro/internal/core", "EnableDeathWatch"}: "",
}

func runFaultSite(pass *Pass) {
	path := pass.Pkg.Path
	if path == faultPkg {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			key := [2]string{fn.Pkg().Path(), fn.Name()}
			extra, guarded := faultEntryPoints[key]
			if !guarded || path == key[0] || (extra != "" && path == extra) {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to %s.%s: fault-injection hooks may be armed only by %s", key[0], fn.Name(), faultPkg)
			return true
		})
	}
}
