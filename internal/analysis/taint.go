package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// This file is the interprocedural taint engine behind the timetaint
// pass. Sources are the host-nondeterminism leaks (wall-clock time,
// math/rand, map iteration order); the engine tracks their values
// flow-insensitively through locals, call results and module globals,
// across function boundaries via per-function summaries, and records a
// sink whenever a tainted value reaches simulation state, the obs
// layer, or bench JSON. Every sink carries a witness chain — the list
// of steps from source to sink — for `m3vet -json`.

// taintMark is one link of a taint witness chain. prev points toward
// the source, so walking prev yields the chain sink-to-source; chain()
// reverses it.
type taintMark struct {
	pos  Fact
	prev *taintMark
}

func mark(pkg *Package, at ast.Node, note string, prev *taintMark) *taintMark {
	return &taintMark{pos: Fact{Pos: pkg.Fset.Position(at.Pos()), Note: note}, prev: prev}
}

// chain returns the witness source-first.
func (m *taintMark) chain() []Fact {
	var facts []Fact
	for ; m != nil; m = m.prev {
		facts = append(facts, m.pos)
	}
	for i, j := 0, len(facts)-1; i < j; i, j = i+1, j-1 {
		facts[i], facts[j] = facts[j], facts[i]
	}
	return facts
}

// taintSummary is one function's boundary behaviour.
type taintSummary struct {
	// result is non-nil when some result value carries source taint
	// regardless of the arguments ("returns a wall-clock timestamp").
	result *taintMark
	// paramToResult marks parameters whose taint flows to a result.
	paramToResult map[int]bool
	// paramToState records parameters whose value is stored (possibly
	// transitively) into simulation-facing state.
	paramToState map[int]*taintMark
}

// TaintSink is one confirmed source-to-sink flow.
type TaintSink struct {
	Pos  Fact
	Mark *taintMark
}

// Chain returns the full witness: source first, the sink step last.
func (s TaintSink) Chain() []Fact {
	return append(s.Mark.chain(), s.Pos)
}

type taintRun struct {
	graph   *CallGraph
	sums    map[*FuncNode]*taintSummary
	globals map[Loc]*taintMark
	sinks   map[string]TaintSink // keyed by pos+note for dedup
	// dirty marks a change visible outside one function (summary,
	// global taint, new sink); only those drive the module fixpoint,
	// because local taint is recomputed from scratch on every visit.
	dirty bool
}

// RunTaint executes the taint fixpoint over the module call graph and
// returns the sinks in deterministic order.
func RunTaint(g *CallGraph) []TaintSink {
	t := &taintRun{
		graph:   g,
		sums:    make(map[*FuncNode]*taintSummary, len(g.Nodes)),
		globals: make(map[Loc]*taintMark),
		sinks:   make(map[string]TaintSink),
	}
	for _, n := range g.Nodes {
		t.sums[n] = &taintSummary{paramToResult: map[int]bool{}, paramToState: map[int]*taintMark{}}
	}
	// Summaries, global taint and the sink set only grow, so this
	// terminates.
	for {
		t.dirty = false
		for _, n := range g.Nodes {
			t.analyze(n)
		}
		if !t.dirty {
			break
		}
	}
	keys := make([]string, 0, len(t.sinks))
	for k := range t.sinks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]TaintSink, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.sinks[k])
	}
	return out
}

// funcState is the per-function working set of one analyze call.
type funcState struct {
	run  *taintRun
	node *FuncNode
	// cur is the node whose summary return statements feed: node
	// itself, or a nested literal's node while walking its body (the
	// literal shares the parent's locals, which is how closure
	// free-variable taint flows).
	cur *FuncNode
	// taint maps local objects (and parameters) to source taint.
	taint map[types.Object]*taintMark
	// fromParam maps local objects to the parameter indices whose
	// values may have reached them.
	fromParam map[types.Object]map[int]bool
	// paramIdx maps this node's parameter objects to their position.
	paramIdx map[types.Object]int
	// localChanged drives the within-function fixpoint only.
	localChanged bool
}

// analyze recomputes one function's summary contribution. Top-level
// declared functions walk their nested literals in the same funcState
// (shared locals); literal nodes are skipped here because their parent
// covers them.
func (t *taintRun) analyze(n *FuncNode) {
	if n.Body == nil || n.Lit != nil {
		return
	}
	fs := &funcState{
		run:       t,
		node:      n,
		cur:       n,
		taint:     make(map[types.Object]*taintMark),
		fromParam: make(map[types.Object]map[int]bool),
		paramIdx:  make(map[types.Object]int),
	}
	params := n.Sig.Params()
	for i := 0; i < params.Len(); i++ {
		fs.paramIdx[params.At(i)] = i
	}
	// Local fixpoint: the body may propagate taint backwards through
	// loops; re-walk until the local sets stop growing. The maps grow
	// monotonically, so this terminates.
	for {
		fs.localChanged = false
		fs.walkBody(n.Body)
		if !fs.localChanged {
			break
		}
	}
}

func (fs *funcState) walkBody(body *ast.BlockStmt) {
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// Walk the literal's body in this same state: its free
			// variables are our locals. Returns inside it feed the
			// literal's own summary.
			litNode := fs.run.graph.ByLit[node]
			if litNode == nil {
				return false
			}
			prev := fs.cur
			fs.cur = litNode
			ast.Inspect(node.Body, walk)
			fs.cur = prev
			return false
		case *ast.AssignStmt:
			fs.assign(node)
			return false
		case *ast.RangeStmt:
			fs.rangeStmt(node)
			return true
		case *ast.ReturnStmt:
			fs.returnStmt(node)
			return false
		case *ast.CallExpr:
			fs.evalExpr(node) // statement-position call: still check sinks
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
}

// setTaint attaches source taint to a local object.
func (fs *funcState) setTaint(obj types.Object, m *taintMark) {
	if obj == nil || m == nil {
		return
	}
	if _, ok := fs.taint[obj]; !ok {
		fs.taint[obj] = m
		fs.localChanged = true
	}
}

func (fs *funcState) setFromParam(obj types.Object, params map[int]bool) {
	if obj == nil || len(params) == 0 {
		return
	}
	set := fs.fromParam[obj]
	if set == nil {
		set = make(map[int]bool)
		fs.fromParam[obj] = set
	}
	for i := range params {
		if !set[i] {
			set[i] = true
			fs.localChanged = true
		}
	}
}

func (fs *funcState) setGlobal(loc Loc, m *taintMark) {
	if m == nil {
		return
	}
	if _, ok := fs.run.globals[loc]; !ok {
		fs.run.globals[loc] = m
		fs.localChanged = true
		fs.run.dirty = true
	}
}

func (fs *funcState) sink(at ast.Node, note string, m *taintMark) {
	if m == nil {
		return
	}
	pos := fs.node.Pkg.Fset.Position(at.Pos())
	key := fmt.Sprintf("%s:%d:%d|%s", pos.Filename, pos.Line, pos.Column, note)
	if _, ok := fs.run.sinks[key]; !ok {
		fs.run.sinks[key] = TaintSink{Pos: Fact{Pos: pos, Note: note}, Mark: m}
		fs.run.dirty = true
	}
}

// assign handles one assignment (including := and compound forms).
func (fs *funcState) assign(stmt *ast.AssignStmt) {
	// Evaluate the full RHS: any tainted operand taints every LHS
	// (tuple assignments from calls are not split per-result).
	var m *taintMark
	params := make(map[int]bool)
	for _, rhs := range stmt.Rhs {
		rm, rp := fs.evalExpr(rhs)
		m = firstMark(m, rm)
		for i := range rp {
			params[i] = true
		}
	}
	for _, lhs := range stmt.Lhs {
		fs.store(lhs, m, params)
		// The LHS may itself contain reads (index expressions, field
		// chains); evaluate them for their side effects.
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			fs.evalExpr(sel.X)
		}
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			fs.evalExpr(idx.X)
			fs.evalExpr(idx.Index)
		}
	}
}

// store routes taint into whatever lhs names.
func (fs *funcState) store(lhs ast.Expr, m *taintMark, params map[int]bool) {
	if m == nil && len(params) == 0 {
		return
	}
	lhs = ast.Unparen(lhs)
	info := fs.node.Pkg.Info
	// A package-level var or struct field?
	if loc, ok := fs.run.graph.locOf(info, lhs); ok {
		fs.storeLoc(lhs, loc, m, params)
		return
	}
	// A local or parameter.
	if id, ok := lhs.(*ast.Ident); ok {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		fs.setTaint(obj, m)
		fs.setFromParam(obj, params)
		return
	}
	// x.f or x[i] where x is a local: taint the base object.
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		fs.store(lhs.X, m, params)
	case *ast.IndexExpr:
		fs.store(lhs.X, m, params)
	case *ast.StarExpr:
		fs.store(lhs.X, m, params)
	}
}

// storeLoc handles a write of tainted data into an abstract location.
// Writes into simulation-facing state are sinks (for source taint) and
// paramToState facts (for parameter taint).
func (fs *funcState) storeLoc(at ast.Expr, loc Loc, m *taintMark, params map[int]bool) {
	simState := loc.Var.Pkg() != nil && simFacing[loc.Var.Pkg().Path()]
	if m != nil {
		fs.setGlobal(loc, m)
		if simState {
			fs.sink(at, fmt.Sprintf("stored into simulation state %s", loc), m)
		}
	}
	if simState && len(params) > 0 {
		sum := fs.run.sums[fs.node]
		for i := range params {
			if sum.paramToState[i] == nil {
				sum.paramToState[i] = mark(fs.node.Pkg, at,
					fmt.Sprintf("%s stores its argument into simulation state %s", fs.node.Name(), loc), nil)
				fs.run.dirty = true
			}
		}
	}
}

// rangeStmt seeds map-iteration-order taint on the key/value variables
// and forwards taint of the ranged expression.
func (fs *funcState) rangeStmt(stmt *ast.RangeStmt) {
	info := fs.node.Pkg.Info
	xm, xp := fs.evalExpr(stmt.X)
	t := info.TypeOf(stmt.X)
	isMap := false
	if t != nil {
		_, isMap = t.Underlying().(*types.Map)
	}
	for _, e := range []ast.Expr{stmt.Key, stmt.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if isMap && !isKeyCollectLoop(stmt) {
			fs.setTaint(obj, mark(fs.node.Pkg, stmt,
				fmt.Sprintf("iteration over map %s (randomized order)", types.TypeString(t, nil)), nil))
		}
		fs.setTaint(obj, xm)
		fs.setFromParam(obj, xp)
	}
}

// returnStmt folds result taint into the current node's summary (the
// enclosing function, or the literal being walked).
func (fs *funcState) returnStmt(stmt *ast.ReturnStmt) {
	sum := fs.run.sums[fs.cur]
	for _, res := range stmt.Results {
		m, params := fs.evalExpr(res)
		if m != nil && sum.result == nil {
			sum.result = m
			fs.run.dirty = true
		}
		// Parameter indices are the *enclosing declared function's*;
		// recording them on a literal's summary would misalign with the
		// literal's own parameters, so only the top-level node takes
		// param flow facts.
		if fs.cur == fs.node {
			for i := range params {
				if !sum.paramToResult[i] {
					sum.paramToResult[i] = true
					fs.run.dirty = true
				}
			}
		}
	}
}

// evalExpr computes the taint of one expression: the source-taint mark
// (nil if none) and the set of parameter indices whose values may flow
// into it. Side effects: sink checks on calls.
func (fs *funcState) evalExpr(expr ast.Expr) (*taintMark, map[int]bool) {
	if expr == nil {
		return nil, nil
	}
	info := fs.node.Pkg.Info
	switch expr := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[expr]
		if obj == nil {
			obj = info.Defs[expr]
		}
		var params map[int]bool
		if i, ok := fs.paramIdx[obj]; ok {
			params = map[int]bool{i: true}
		}
		if set := fs.fromParam[obj]; set != nil {
			params = unionParams(params, set)
		}
		if m := fs.taint[obj]; m != nil {
			return m, params
		}
		if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
			return fs.run.globals[Loc{Var: v}], params
		}
		return nil, params
	case *ast.SelectorExpr:
		if loc, ok := fs.run.graph.locOf(info, expr); ok {
			if m := fs.run.globals[loc]; m != nil {
				return m, nil
			}
		}
		return fs.evalExpr(expr.X)
	case *ast.CallExpr:
		return fs.evalCall(expr)
	case *ast.StarExpr:
		return fs.evalExpr(expr.X)
	case *ast.UnaryExpr:
		return fs.evalExpr(expr.X)
	case *ast.BinaryExpr:
		lm, lp := fs.evalExpr(expr.X)
		rm, rp := fs.evalExpr(expr.Y)
		return firstMark(lm, rm), unionParams(lp, rp)
	case *ast.IndexExpr:
		bm, bp := fs.evalExpr(expr.X)
		im, ip := fs.evalExpr(expr.Index)
		return firstMark(bm, im), unionParams(bp, ip)
	case *ast.SliceExpr:
		return fs.evalExpr(expr.X)
	case *ast.TypeAssertExpr:
		return fs.evalExpr(expr.X)
	case *ast.CompositeLit:
		var m *taintMark
		var params map[int]bool
		for _, elt := range expr.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			em, ep := fs.evalExpr(elt)
			m = firstMark(m, em)
			params = unionParams(params, ep)
		}
		return m, params
	case *ast.FuncLit:
		// A literal in expression position (assignment RHS, argument)
		// still has a body that can capture — and taint — our locals;
		// walk it in this state, with returns feeding the literal's own
		// summary. The value itself carries no taint.
		if litNode := fs.run.graph.ByLit[expr]; litNode != nil {
			prev := fs.cur
			fs.cur = litNode
			fs.walkBody(expr.Body)
			fs.cur = prev
		}
		return nil, nil
	}
	return nil, nil
}

// evalCall handles sources, summaries, unknown callees and sinks.
func (fs *funcState) evalCall(call *ast.CallExpr) (*taintMark, map[int]bool) {
	info := fs.node.Pkg.Info
	pkg := fs.node.Pkg

	// Evaluate arguments (and the receiver expression, if any).
	var argMarks []*taintMark
	var anyArg *taintMark
	var params map[int]bool
	for _, arg := range call.Args {
		am, ap := fs.evalExpr(arg)
		argMarks = append(argMarks, am)
		anyArg = firstMark(anyArg, am)
		params = unionParams(params, ap)
	}
	var recvMark *taintMark
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvMark, _ = fs.evalExpr(sel.X)
		}
	}

	fn := calleeFunc(info, call)

	// Sources.
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if timeFuncs[fn.Name()] {
				return mark(pkg, call, fmt.Sprintf("wall-clock value from time.%s", fn.Name()), nil), params
			}
		case "math/rand", "math/rand/v2":
			return mark(pkg, call, fmt.Sprintf("host randomness from %s.%s", fn.Pkg().Path(), fn.Name()), nil), params
		}
	}

	// Sinks by callee package: the obs layer (metrics, traces, bench
	// snapshots) and JSON encoding (bench output files).
	if fn != nil && fn.Pkg() != nil {
		sinkNote := ""
		switch fn.Pkg().Path() {
		case "repro/internal/obs":
			sinkNote = fmt.Sprintf("passed to obs.%s (metrics/trace output)", fn.Name())
		case "encoding/json":
			sinkNote = fmt.Sprintf("encoded via json.%s (bench/trace JSON)", fn.Name())
		}
		if sinkNote != "" {
			fs.sink(call, sinkNote, firstMark(anyArg, recvMark))
		}
	}

	// Module callee: consult its summary.
	if fn != nil {
		if callee := fs.run.graph.ByObj[fn]; callee != nil {
			sum := fs.run.sums[callee]
			var m *taintMark
			if sum.result != nil {
				m = mark(pkg, call, fmt.Sprintf("result of %s", callee.Name()), sum.result)
			}
			forwards := len(sum.paramToResult) > 0
			for i, am := range argMarks {
				if am == nil {
					continue
				}
				if sum.paramToResult[i] {
					m = firstMark(m, mark(pkg, call, fmt.Sprintf("flows through %s", callee.Name()), am))
				}
				if ps := sum.paramToState[i]; ps != nil {
					fs.sink(call, ps.pos.Note, am)
				}
			}
			// Our own parameters' values survive through a forwarding
			// callee.
			var outParams map[int]bool
			if forwards {
				outParams = params
			}
			return m, outParams
		}
		// Known function outside the module (stdlib): conservative
		// arg-to-result propagation (fmt.Sprintf of a timestamp is
		// still a timestamp).
		var m *taintMark
		if src := firstMark(anyArg, recvMark); src != nil && hasResults(info, call) {
			m = mark(pkg, call, fmt.Sprintf("through call to %s.%s", pkgPathOf(fn), fn.Name()), src)
		}
		return m, params
	}

	// Dynamic call or conversion: propagate argument taint.
	var m *taintMark
	if src := firstMark(anyArg, recvMark); src != nil {
		m = mark(pkg, call, "through call through function value", src)
	}
	return m, params
}

func hasResults(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		return tuple.Len() > 0
	}
	return true
}

func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

func firstMark(a, b *taintMark) *taintMark {
	if a != nil {
		return a
	}
	return b
}

func unionParams(a, b map[int]bool) map[int]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[int]bool, len(a)+len(b))
	for i := range a {
		out[i] = true
	}
	for i := range b {
		out[i] = true
	}
	return out
}
