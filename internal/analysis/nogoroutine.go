package analysis

import (
	"go/ast"
	"go/types"
)

// NoGoroutine forbids Go concurrency outside internal/sim. The engine's
// strict hand-off (at most one of the engine and its coroutine
// processes runs at any moment) is what makes the simulation
// deterministic; a stray `go` statement or channel operation anywhere
// else introduces scheduler-dependent interleavings that no test will
// reliably catch. Inside internal/sim, only the parallel engine's
// worker pool uses them.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid go statements and raw channel operations outside internal/sim",
	Run:  runNoGoroutine,
}

func runNoGoroutine(pass *Pass) {
	if pass.Pkg.Path == simEnginePath {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside internal/sim: spawn a sim.Process to keep the engine's strict hand-off")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send outside internal/sim: use sim.Queue or sim.Signal")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement outside internal/sim: use sim.Signal waits")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(),
						"channel receive outside internal/sim: use sim.Queue or sim.Signal")
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(),
							"range over channel outside internal/sim: use sim.Queue")
					}
				}
			case *ast.CallExpr:
				fun, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if b, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "close":
						pass.Reportf(n.Pos(), "close of channel outside internal/sim")
					case "make":
						if len(n.Args) > 0 {
							if t := info.TypeOf(n.Args[0]); t != nil {
								if _, isChan := t.Underlying().(*types.Chan); isChan {
									pass.Reportf(n.Pos(), "channel creation outside internal/sim")
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}
