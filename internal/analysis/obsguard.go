package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsGuard enforces the structured tracer's zero-overhead contract:
// simulation-facing code may emit events or update histograms only
// inside a block guarded by Tracer.On(). With no tracer installed the
// whole observability layer must cost one predictable branch per site
// — an unguarded Emit would build an Event (and evaluate its
// arguments) on every hot-path execution, and an unguarded histogram
// update would skew the zero-overhead regression baseline. The obs
// package itself is exempt: it implements the guard.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "structured-event and histogram calls must sit inside a Tracer.On() guard",
	Run:  runObsGuard,
}

// obsPkg is the structured observability package.
const obsPkg = "repro/internal/obs"

// obsGuarded names the obs functions that produce data and therefore
// belong under a guard. Read-side accessors (Quantile, Histograms,
// FlightDump, ...) run after the simulation and stay free. Counter
// updates (Inc/Add) are guarded for the same reason as Emit:
// with the tracer off, not even an atomic-free counter bump may run.
var obsGuarded = map[string]bool{
	"Emit":    true,
	"Hist":    true,
	"Observe": true,
	"NewSpan": true,
	"Inc":     true,
	"Add":     true,
}

func runObsGuard(pass *Pass) {
	path := pass.Pkg.Path
	if path == obsPkg || !simFacing[path] {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Pass 1: the guarded ranges — bodies of if statements whose
		// condition calls Tracer.On.
		var ranges [][2]token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			if condCallsOn(info, ifs.Cond) {
				ranges = append(ranges, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
			}
			return true
		})
		// Pass 2: every guarded callee must sit inside one of them.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg || !obsGuarded[fn.Name()] {
				return true
			}
			for _, r := range ranges {
				if call.Pos() >= r[0] && call.End() <= r[1] {
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"unguarded call to obs %s: wrap the site in `if tr := ...; tr.On() { ... }` so a disabled tracer costs one branch", fn.Name())
			return true
		})
	}
}

// condCallsOn reports whether the expression contains a call to the
// obs package's On method.
func condCallsOn(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == obsPkg && fn.Name() == "On" {
			found = true
		}
		return true
	})
	return found
}
