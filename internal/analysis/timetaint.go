package analysis

import "fmt"

// TimeTaint is the interprocedural companion to the syntactic
// nodeterminism rule. nodeterminism bans time.Now/math/rand/map-ranges
// *inside* simulation-facing packages; what it cannot see is host
// nondeterminism laundered through helper functions: a cmd/ tool that
// computes a value from wall-clock time and passes it into a sim API,
// a timestamp threaded through fmt.Sprintf into a metrics snapshot, a
// map-ordered slice fed to the bench JSON encoder. TimeTaint runs the
// taint engine (taint.go) over the whole module and reports every
// source-to-sink flow with its witness chain.
var TimeTaint = &Analyzer{
	Name:      "timetaint",
	Doc:       "forbid wall-clock, host-randomness, or map-order values from reaching sim state, traces, metrics, or bench JSON",
	RunModule: runTimeTaint,
}

func runTimeTaint(pass *ModulePass) {
	for _, sink := range RunTaint(pass.Graph) {
		chain := sink.Chain()
		src := "host nondeterminism"
		if len(chain) > 0 {
			src = chain[0].Note
		}
		pass.Report(sink.Pos.Pos,
			fmt.Sprintf("%s reaches a determinism-sensitive sink: %s", src, sink.Pos.Note),
			chain)
	}
}
