package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the conservative call graph that the interprocedural
// timetaint pass walks. The graph covers every
// function and method declared in the module plus every function
// literal, and resolves four call shapes:
//
//   - direct calls to declared functions and methods (static);
//   - interface method calls: edges to every method of a module type
//     that implements the interface (types.Implements, so embedding and
//     pointer receivers are handled by the type checker, not by name
//     matching);
//   - immediately invoked function literals (static);
//   - calls through function-typed values (fields, variables,
//     parameters, method values): edges to every *address-taken*
//     function or literal with an assignable signature. A function is
//     address-taken when it is referenced outside call position —
//     passed as an argument, assigned, stored in a struct — which is
//     the only way it can become a dynamic callee.
//
// The dynamic-call rule is the usual class-hierarchy-style
// over-approximation: it never misses a possible callee inside the
// module, at the cost of edges that cannot happen at run time. The
// passes built on top are designed so that over-approximation widens
// taint, never shrinks it.

// FuncNode is one call-graph node: a declared function/method or a
// function literal.
type FuncNode struct {
	// Obj is the declared function object (nil for literals).
	Obj *types.Func
	// Lit is the literal (nil for declared functions).
	Lit *ast.FuncLit
	// Body is the function body; nil for declarations without one.
	Body *ast.BlockStmt
	// Pkg is the package the node's source lives in.
	Pkg *Package
	// Sig is the node's signature.
	Sig *types.Signature
	// Parent is the enclosing node for literals (nil for declared
	// functions): the closure's writes happen in the parent's source,
	// but its *calls* happen wherever the value ends up.
	Parent *FuncNode

	// Calls are the resolved callees, deduplicated, in first-seen
	// (source) order so every walk over the graph is deterministic.
	Calls []*FuncNode
	// calledDynamically marks address-taken nodes (possible targets of
	// calls through func values).
	calledDynamically bool

	callSet map[*FuncNode]bool
}

// Name returns a stable human-readable identifier:
// "pkg/path.Func", "pkg/path.(Type).Method", or
// "pkg/path.Parent$lit@line" for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		return funcName(n.Pkg.Path, n.Obj)
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	parent := "func"
	if n.Parent != nil {
		parent = n.Parent.Name()
	}
	return fmt.Sprintf("%s$lit@%d", parent, pos.Line)
}

// funcName names a function declared in the package at path:
// "pkg/path.Func" or "pkg/path.(Type).Method".
func funcName(path string, fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", path, named.Obj().Name(), fn.Name())
		}
	}
	return fmt.Sprintf("%s.%s", path, fn.Name())
}

// Pos returns the node's source position.
func (n *FuncNode) Pos() token.Pos {
	if n.Obj != nil {
		return n.Obj.Pos()
	}
	return n.Lit.Pos()
}

func (n *FuncNode) addCall(callee *FuncNode) {
	if callee == nil || n.callSet[callee] {
		return
	}
	if n.callSet == nil {
		n.callSet = make(map[*FuncNode]bool)
	}
	n.callSet[callee] = true
	n.Calls = append(n.Calls, callee)
}

// CallGraph is the module-wide conservative call graph.
type CallGraph struct {
	// Nodes in deterministic order: packages in path order, functions
	// in source order within each package.
	Nodes []*FuncNode
	// ByObj maps declared function objects to their nodes.
	ByObj map[*types.Func]*FuncNode
	// ByLit maps function literals to their nodes.
	ByLit map[*ast.FuncLit]*FuncNode

	pkgs     []*Package
	dynamics []dynamicCall

	// bindings maps each func-typed variable or field object to the
	// functions/literals assigned to it anywhere in the module. A call
	// through the object resolves to exactly this set — unless the
	// object is "open" (some assignment's RHS could not be resolved to
	// a node, e.g. a parameter flowing in), in which case resolution
	// falls back to every address-taken function of compatible
	// signature.
	bindings    map[types.Object][]*FuncNode
	bindingSet  map[types.Object]map[*FuncNode]bool
	openBinding map[types.Object]bool
}

// BuildCallGraph constructs the call graph over the given packages
// (every package of the module, in path order).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		ByObj:       make(map[*types.Func]*FuncNode),
		ByLit:       make(map[*ast.FuncLit]*FuncNode),
		pkgs:        pkgs,
		bindings:    make(map[types.Object][]*FuncNode),
		bindingSet:  make(map[types.Object]map[*FuncNode]bool),
		openBinding: make(map[types.Object]bool),
	}
	// Pass 1: create nodes for every declared function and literal.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{
					Obj:  obj,
					Body: fd.Body,
					Pkg:  pkg,
					Sig:  obj.Type().(*types.Signature),
				}
				g.ByObj[obj] = node
				g.Nodes = append(g.Nodes, node)
				g.addLiterals(node, pkg, fd.Body)
			}
		}
		// Literals in package-level variable initializers run at init
		// time; give them nodes with no parent.
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					g.addLiterals(nil, pkg, gd)
				}
			}
		}
	}
	// Pass 2: resolve calls and references.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if node := g.ByObj[obj]; node != nil && d.Body != nil {
						g.resolveBody(node, d.Body)
					}
				case *ast.GenDecl:
					// Initializer expressions: references are
					// address-taken (they can be called from anywhere
					// the variable flows), and literals' bodies get
					// their own call edges. Bindings (var x = fn) are
					// recorded so calls through x resolve precisely.
					ast.Inspect(d, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.ValueSpec:
							g.recordValueSpec(pkg, n)
						case *ast.CompositeLit:
							g.recordComposite(pkg, n)
						}
						if lit, ok := n.(*ast.FuncLit); ok {
							if node := g.ByLit[lit]; node != nil {
								node.calledDynamically = true
								g.resolveBody(node, lit.Body)
							}
							return false
						}
						g.markRefs(pkg, n)
						return true
					})
				}
			}
		}
	}
	g.resolveDynamicCalls()
	return g
}

// addLiterals creates nodes for every function literal under root.
func (g *CallGraph) addLiterals(parent *FuncNode, pkg *Package, root ast.Node) {
	if root == nil {
		return
	}
	var stack []*FuncNode
	if parent != nil {
		stack = append(stack, parent)
	}
	// ast.Inspect gives enter/leave via nil; track nesting so each
	// literal's Parent is the innermost enclosing function node.
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sig, _ := pkg.Info.TypeOf(lit).(*types.Signature)
		if sig == nil {
			return true
		}
		var p *FuncNode
		if len(stack) > 0 {
			p = stack[len(stack)-1]
		}
		node := &FuncNode{Lit: lit, Body: lit.Body, Pkg: pkg, Sig: sig, Parent: p}
		g.ByLit[lit] = node
		g.Nodes = append(g.Nodes, node)
		stack = append(stack, node)
		ast.Inspect(lit.Body, walk)
		stack = stack[:len(stack)-1]
		return false // children handled by the nested Inspect
	}
	ast.Inspect(root, walk)
}

// addBinding records that a call through obj may reach node.
func (g *CallGraph) addBinding(obj types.Object, node *FuncNode) {
	if obj == nil || node == nil {
		return
	}
	set := g.bindingSet[obj]
	if set == nil {
		set = make(map[*FuncNode]bool)
		g.bindingSet[obj] = set
	}
	if !set[node] {
		set[node] = true
		g.bindings[obj] = append(g.bindings[obj], node)
	}
}

// bindTarget resolves an assignable expression to the variable or
// field object a func value is being bound to, or nil.
func bindTarget(pkg *Package, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Defs[lhs]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[lhs]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return pkg.Info.Uses[lhs.Sel]
	}
	return nil
}

func isFuncTyped(obj types.Object) bool {
	if obj == nil || obj.Type() == nil {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Signature)
	return ok
}

// valueNode resolves a func-valued expression to its node: a literal,
// a named function, or a method value. nil for anything else.
func (g *CallGraph) valueNode(pkg *Package, expr ast.Expr) *FuncNode {
	switch expr := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return g.ByLit[expr]
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[expr].(*types.Func); ok {
			return g.ByObj[fn]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[expr]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return g.ByObj[fn]
			}
		}
		if fn, ok := pkg.Info.Uses[expr.Sel].(*types.Func); ok {
			return g.ByObj[fn]
		}
	}
	return nil
}

// recordBinding processes one (target, value) pair of an assignment,
// composite literal element, or var initializer.
func (g *CallGraph) recordBinding(pkg *Package, obj types.Object, rhs ast.Expr) {
	if !isFuncTyped(obj) {
		return
	}
	if n := g.valueNode(pkg, rhs); n != nil {
		g.addBinding(obj, n)
		return
	}
	// A func-typed RHS we cannot resolve (parameter, call result,
	// other variable): the target's callee set is no longer closed.
	// nil and non-func RHS (e.g. in a mixed tuple) stay closed — nil
	// cannot be called.
	if t := pkg.Info.TypeOf(rhs); t != nil {
		if _, ok := t.Underlying().(*types.Signature); ok {
			g.openBinding[obj] = true
		}
	}
}

// recordAssign records func-value bindings made by one assignment.
func (g *CallGraph) recordAssign(pkg *Package, stmt *ast.AssignStmt) {
	if len(stmt.Lhs) == len(stmt.Rhs) {
		for i := range stmt.Lhs {
			g.recordBinding(pkg, bindTarget(pkg, stmt.Lhs[i]), stmt.Rhs[i])
		}
		return
	}
	// Tuple assignment from a call: any func-typed target may receive
	// a value we cannot see.
	for _, lhs := range stmt.Lhs {
		if obj := bindTarget(pkg, lhs); isFuncTyped(obj) {
			g.openBinding[obj] = true
		}
	}
}

// recordComposite records func-value bindings made by struct literal
// fields (keyed or positional).
func (g *CallGraph) recordComposite(pkg *Package, lit *ast.CompositeLit) {
	t := pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				g.recordBinding(pkg, pkg.Info.Uses[key], kv.Value)
			}
			continue
		}
		if i < st.NumFields() {
			g.recordBinding(pkg, st.Field(i), elt)
		}
	}
}

// recordValueSpec records func-value bindings made by var declarations.
func (g *CallGraph) recordValueSpec(pkg *Package, spec *ast.ValueSpec) {
	if len(spec.Names) != len(spec.Values) {
		return
	}
	for i, name := range spec.Names {
		g.recordBinding(pkg, pkg.Info.Defs[name], spec.Values[i])
	}
}

// resolveBody records static call edges and address-taken references
// for one function body. Calls made inside nested literals belong to
// the literal's node, not the enclosing function's.
func (g *CallGraph) resolveBody(node *FuncNode, body *ast.BlockStmt) {
	cur := node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			g.recordAssign(node.Pkg, n)
		case *ast.CompositeLit:
			g.recordComposite(node.Pkg, n)
		case *ast.ValueSpec:
			g.recordValueSpec(node.Pkg, n)
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := g.ByLit[n]
			if lit == nil {
				return false
			}
			// A literal reached outside call position is a value: it can
			// be stored, passed, and later called through a func
			// variable, so it is a dynamic-call candidate.
			lit.calledDynamically = true
			prev := cur
			cur = lit
			ast.Inspect(n.Body, walk)
			cur = prev
			return false
		case *ast.CallExpr:
			g.resolveCall(cur, n)
			// Walk the arguments (they may reference functions or hold
			// literals) but skip the callee expression itself: a
			// function named in call position is *called*, not
			// address-taken, and marking it would make every direct
			// callee a dynamic-call candidate.
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				// Nothing inside to walk.
			case *ast.SelectorExpr:
				ast.Inspect(fun.X, walk)
			case *ast.FuncLit:
				// Immediately invoked: the static edge is recorded by
				// resolveCall; the body's own edges belong to the
				// literal's node, which is not address-taken.
				if lit := g.ByLit[fun]; lit != nil {
					prev := cur
					cur = lit
					ast.Inspect(fun.Body, walk)
					cur = prev
				}
			default:
				ast.Inspect(n.Fun, walk)
			}
			for _, arg := range n.Args {
				ast.Inspect(arg, walk)
			}
			return false
		default:
			g.markRefs(node.Pkg, n)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// resolveCall adds edges for one call expression from caller.
func (g *CallGraph) resolveCall(caller *FuncNode, call *ast.CallExpr) {
	info := caller.Pkg.Info
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			caller.addCall(g.ByObj[obj])
			return
		case *types.Var:
			// Call through a func-typed variable: dynamic.
			caller.addCall(g.dynamicNodeFor(caller, call))
			return
		}
		// Builtin or type conversion: no edge.
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			callee, _ := sel.Obj().(*types.Func)
			if callee == nil {
				return
			}
			if types.IsInterface(sel.Recv().Underlying()) {
				// Interface dispatch: every module method implementing
				// this interface method is a possible callee.
				for _, impl := range g.implementers(sel.Recv(), callee) {
					caller.addCall(impl)
				}
				return
			}
			caller.addCall(g.ByObj[callee])
			return
		}
		// Package-qualified function, func-typed field, or conversion.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			caller.addCall(g.ByObj[obj])
			return
		case *types.Var:
			caller.addCall(g.dynamicNodeFor(caller, call))
			return
		}
	case *ast.FuncLit:
		// Immediately invoked literal.
		caller.addCall(g.ByLit[fun])
		return
	default:
		// Call of an arbitrary expression (call result, index...):
		// dynamic.
		if _, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
			caller.addCall(g.dynamicNodeFor(caller, call))
		}
	}
}

// dynamicCall is a placeholder node representing "a call through a
// func value of this signature"; resolveDynamicCalls replaces each
// placeholder's edges with the address-taken candidates.
type dynamicCall struct {
	caller *FuncNode
	sig    *types.Signature
	// target is the variable or field the call goes through, when the
	// callee expression names one; bindings recorded for it take
	// priority over the signature-matching fallback.
	target types.Object
}

func (g *CallGraph) dynamicNodeFor(caller *FuncNode, call *ast.CallExpr) *FuncNode {
	sig, _ := caller.Pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return nil
	}
	dc := dynamicCall{caller: caller, sig: sig}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		dc.target = caller.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := caller.Pkg.Info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			dc.target = sel.Obj()
		} else {
			dc.target = caller.Pkg.Info.Uses[fun.Sel]
		}
	}
	g.dynamics = append(g.dynamics, dc)
	return nil
}

// markRefs marks functions referenced outside call position as
// address-taken. resolveBody routes every non-call node here, and
// resolveCall's argument walk re-enters via resolveBody's default arm,
// so `eng.Schedule(d, fn)` marks fn.
func (g *CallGraph) markRefs(pkg *Package, n ast.Node) {
	switch n := n.(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[n].(*types.Func); ok {
			if node := g.ByObj[obj]; node != nil {
				node.calledDynamically = true
			}
		}
	case *ast.FuncLit:
		if node := g.ByLit[n]; node != nil {
			node.calledDynamically = true
		}
	case *ast.SelectorExpr:
		// Method value: x.M referenced, not called.
		if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if node := g.ByObj[fn]; node != nil {
					node.calledDynamically = true
				}
			}
		}
	}
}

// implementers returns the module methods that implement the interface
// method m of interface type iface, in deterministic order.
func (g *CallGraph) implementers(iface types.Type, m *types.Func) []*FuncNode {
	var out []*FuncNode
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	seen := make(map[*FuncNode]bool)
	for _, pkg := range g.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			// Methods may be on T or *T.
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(typ, it) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					if node := g.ByObj[fn]; node != nil && !seen[node] {
						seen[node] = true
						out = append(out, node)
					}
				}
			}
		}
	}
	return out
}

// resolveDynamicCalls links every dynamic call site to its possible
// callees. A call through a variable or field whose every func-valued
// assignment was resolvable uses exactly that binding set; otherwise
// the site falls back to every address-taken function with an
// assignable signature.
func (g *CallGraph) resolveDynamicCalls() {
	var taken []*FuncNode
	for _, n := range g.Nodes {
		if n.calledDynamically {
			taken = append(taken, n)
		}
	}
	for _, dc := range g.dynamics {
		if dc.target != nil && !g.openBinding[dc.target] {
			if bound := g.bindings[dc.target]; len(bound) > 0 {
				for _, b := range bound {
					dc.caller.addCall(b)
				}
				continue
			}
		}
		for _, cand := range taken {
			if signaturesCompatible(dc.sig, cand.Sig) {
				dc.caller.addCall(cand)
			}
		}
	}
}

// signaturesCompatible reports whether a func value of signature want
// could hold a reference to a function of signature have. Receivers
// are ignored (a method value's receiver is already bound) and
// variadic shapes must agree; parameter and result types must be
// identical position by position.
func signaturesCompatible(want, have *types.Signature) bool {
	if want.Params().Len() != have.Params().Len() ||
		want.Results().Len() != have.Results().Len() ||
		want.Variadic() != have.Variadic() {
		return false
	}
	for i := 0; i < want.Params().Len(); i++ {
		if !types.Identical(want.Params().At(i).Type(), have.Params().At(i).Type()) {
			return false
		}
	}
	for i := 0; i < want.Results().Len(); i++ {
		if !types.Identical(want.Results().At(i).Type(), have.Results().At(i).Type()) {
			return false
		}
	}
	return true
}
