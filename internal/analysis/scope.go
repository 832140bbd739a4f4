package analysis

import (
	"go/ast"
	"go/types"
)

// simFacing lists the packages whose code executes inside (or builds)
// the simulation. Code here must be bit-for-bit deterministic: it runs
// under the engine's strict hand-off and any dependence on host time,
// host randomness, or Go's randomized map iteration order changes the
// event schedule and corrupts every benchmark comparison.
var simFacing = map[string]bool{
	"repro/internal/sim":   true,
	"repro/internal/core":  true,
	"repro/internal/dtu":   true,
	"repro/internal/noc":   true,
	"repro/internal/m3":    true,
	"repro/internal/m3fs":  true,
	"repro/internal/mem":   true,
	"repro/internal/tile":  true,
	"repro/internal/accel": true,
	"repro/internal/fault": true,
	"repro/internal/obs":   true,
}

// calleeFunc resolves the function or method called by call, or nil if
// the callee is not a named function (builtin, conversion, func value).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeName returns the bare name of the called function or method,
// for syntactic matching when type information offers nothing better.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
