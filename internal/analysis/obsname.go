package analysis

import (
	"go/ast"
	"go/types"
)

// ObsName pins the observability namespace down at compile time: every
// name registered with the obs package — a metric (Counter) or an SLO
// objective (Objective) — must be a package-level
// constant. Metric snapshots, SLO burn rates and breach events are all
// keyed by name, so a name computed at runtime lets the set drift with
// run parameters. The witnesses and goldens hold the names of the runs
// they replay only; a name drifting in a run they do not cover (a run
// whose admission watermark refuses, an E-tail workload) passes every
// test (docs/ANALYSIS.md, the rule audit). A constant per name also
// gives it exactly one greppable definition site. The obs package
// itself is exempt: it implements the registry.
var ObsName = &Analyzer{
	Name: "obsname",
	Doc:  "metric and SLO names passed to obs registration must be package-level constants",
	Run:  runObsName,
}

// obsRegistration names the obs methods whose first argument is a
// registered name, and what the name identifies.
var obsRegistration = map[string]string{
	"Counter":   "metric",
	"Objective": "SLO",
}

func runObsName(pass *Pass) {
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
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg || len(call.Args) == 0 {
				return true
			}
			kind, ok := obsRegistration[fn.Name()]
			if !ok || isPkgLevelConst(info, call.Args[0]) {
				return true
			}
			pass.Reportf(call.Args[0].Pos(),
				"%s name passed to obs %s must be a package-level constant, not a dynamic expression", kind, fn.Name())
			return true
		})
	}
}

// isPkgLevelConst reports whether expr is an identifier or selector
// resolving to a constant declared at package scope (in this package or
// an imported one).
func isPkgLevelConst(info *types.Info, expr ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil {
		return false
	}
	return c.Parent() == c.Pkg().Scope()
}
