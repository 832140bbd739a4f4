package analysis

import (
	"go/ast"
)

// SLOName extends the metricname discipline to the SLO engine: every
// objective registered against an obs.SLOSet (Objective) must be named
// by a package-level constant. SLO definitions are contracts — burn
// rates, breach events, and the snapshot format are all keyed by name,
// so a name computed at runtime would let the objective set drift with
// run parameters and break the byte-stable `m3sim slo` report
// (docs/OBSERVABILITY.md). The obs package itself is exempt: it
// implements the set.
var SLOName = &Analyzer{
	Name: "sloname",
	Doc:  "SLO names passed to obs.SLOSet registration must be package-level constants",
	Run:  runSLOName,
}

// sloRegistration names the obs.SLOSet methods whose first argument is
// an objective name.
var sloRegistration = map[string]bool{
	"Objective": true,
}

func runSLOName(pass *Pass) {
	if pass.Pkg.Path == obsPkg {
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
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg ||
				!sloRegistration[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			if isPkgLevelConst(info, call.Args[0]) {
				return true
			}
			pass.Reportf(call.Args[0].Pos(),
				"SLO name passed to obs %s must be a package-level constant, not a dynamic expression", fn.Name())
			return true
		})
	}
}
