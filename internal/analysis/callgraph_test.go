package analysis

import (
	"sort"
	"strings"
	"testing"
)

// loadPkgs type-checks every overlay package, in path order, and
// returns them ready for BuildCallGraph/checkPackages.
func loadPkgs(t *testing.T, overlay map[string]map[string]string) []*Package {
	t.Helper()
	l := newFixtureLoader(overlay)
	paths := make([]string, 0, len(overlay))
	for p := range overlay {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

func nodeByName(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	var names []string
	for _, n := range g.Nodes {
		names = append(names, n.Name())
	}
	t.Fatalf("no node %q; have:\n  %s", name, strings.Join(names, "\n  "))
	return nil
}

func calleeNames(n *FuncNode) []string {
	var out []string
	for _, c := range n.Calls {
		out = append(out, c.Name())
	}
	return out
}

func hasCallee(n *FuncNode, name string) bool {
	for _, c := range n.Calls {
		if c.Name() == name {
			return true
		}
	}
	return false
}

func TestCallGraphStaticAndMethods(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/a": {"a.go": `package a

type T struct{}

func (t *T) M() { helper() }

func helper() {}

func Top() {
	t := &T{}
	t.M()
}
`},
	}
	g := BuildCallGraph(loadPkgs(t, overlay))
	top := nodeByName(t, g, "repro/internal/a.Top")
	if !hasCallee(top, "repro/internal/a.(T).M") {
		t.Errorf("Top should call (T).M; calls: %v", calleeNames(top))
	}
	m := nodeByName(t, g, "repro/internal/a.(T).M")
	if !hasCallee(m, "repro/internal/a.helper") {
		t.Errorf("(T).M should call helper; calls: %v", calleeNames(m))
	}
}

// An interface call must edge to every module implementation — found
// through the type checker, so pointer receivers work.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/a": {"a.go": `package a

type Runner interface{ Run() }

func Drive(r Runner) { r.Run() }
`},
		"repro/internal/b": {"b.go": `package b

type Fast struct{}

func (Fast) Run() {}

type Slow struct{}

func (s *Slow) Run() {}
`},
	}
	g := BuildCallGraph(loadPkgs(t, overlay))
	drive := nodeByName(t, g, "repro/internal/a.Drive")
	for _, want := range []string{"repro/internal/b.(Fast).Run", "repro/internal/b.(Slow).Run"} {
		if !hasCallee(drive, want) {
			t.Errorf("Drive should dispatch to %s; calls: %v", want, calleeNames(drive))
		}
	}
}

// A call through a func value must edge to every address-taken
// function of a compatible signature — including method values — but
// not to functions only ever named in call position.
func TestCallGraphDynamicAndMethodValues(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/a": {"a.go": `package a

type T struct{}

func (t *T) Tick() {}

func free() {}

func onlyCalledDirectly() {}

func Invoke(fn func()) { fn() }

func Wire(t *T) {
	Invoke(t.Tick) // method value: address-taken
	Invoke(free)   // named function: address-taken
	onlyCalledDirectly()
}
`},
	}
	g := BuildCallGraph(loadPkgs(t, overlay))
	invoke := nodeByName(t, g, "repro/internal/a.Invoke")
	for _, want := range []string{"repro/internal/a.(T).Tick", "repro/internal/a.free"} {
		if !hasCallee(invoke, want) {
			t.Errorf("Invoke should resolve dynamically to %s; calls: %v", want, calleeNames(invoke))
		}
	}
	if hasCallee(invoke, "repro/internal/a.onlyCalledDirectly") {
		t.Errorf("Invoke must not target a function never referenced outside call position; calls: %v",
			calleeNames(invoke))
	}
}

// Function literals get their own nodes: an immediately invoked
// literal is a static edge, a stored one resolves dynamically, and a
// nested literal's parent is the innermost enclosing function.
func TestCallGraphClosures(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/a": {"a.go": `package a

func Invoke(fn func()) { fn() }

func Outer() {
	func() { // immediately invoked
		Invoke(func() {}) // nested, stored
	}()
}
`},
	}
	g := BuildCallGraph(loadPkgs(t, overlay))
	outer := nodeByName(t, g, "repro/internal/a.Outer")
	lit := nodeByName(t, g, "repro/internal/a.Outer$lit@6")
	if !hasCallee(outer, lit.Name()) {
		t.Errorf("Outer should call its immediately invoked literal; calls: %v", calleeNames(outer))
	}
	nested := nodeByName(t, g, "repro/internal/a.Outer$lit@6$lit@7")
	if nested.Parent != lit {
		t.Errorf("nested literal's parent = %v, want the outer literal", nested.Parent)
	}
	invoke := nodeByName(t, g, "repro/internal/a.Invoke")
	if !hasCallee(invoke, nested.Name()) {
		t.Errorf("Invoke should resolve dynamically to the stored literal; calls: %v", calleeNames(invoke))
	}
}

// A call through a variable or field whose assignments are all visible
// resolves to exactly the bound functions, not to every address-taken
// function of the same shape. A parameter (no visible binding) still
// falls back to signature matching.
func TestCallGraphBindingResolution(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/a": {"a.go": `package a

type Cfg struct{ Hook func() }

func bound()   {}
func decoy()   {}
func escape(f func()) { _ = f }

func UseField() {
	c := Cfg{Hook: bound}
	c.Hook()
}

func UseLocal() {
	f := bound
	f()
	escape(decoy) // decoy is address-taken, same signature
}

func UseParam(f func()) {
	f() // no binding: signature fallback
}
`},
	}
	g := BuildCallGraph(loadPkgs(t, overlay))
	field := nodeByName(t, g, "repro/internal/a.UseField")
	if !hasCallee(field, "repro/internal/a.bound") || hasCallee(field, "repro/internal/a.decoy") {
		t.Errorf("field call should resolve to bound only; calls: %v", calleeNames(field))
	}
	local := nodeByName(t, g, "repro/internal/a.UseLocal")
	if !hasCallee(local, "repro/internal/a.bound") || hasCallee(local, "repro/internal/a.decoy") {
		t.Errorf("local call should resolve to bound only; calls: %v", calleeNames(local))
	}
	param := nodeByName(t, g, "repro/internal/a.UseParam")
	for _, want := range []string{"repro/internal/a.bound", "repro/internal/a.decoy"} {
		if !hasCallee(param, want) {
			t.Errorf("param call should fall back to %s; calls: %v", want, calleeNames(param))
		}
	}
}

// A binding set is abandoned ("open") when any assignment's RHS is a
// func value the analysis cannot resolve.
func TestCallGraphOpenBinding(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/a": {"a.go": `package a

var hook func()

func bound() {}
func other() {}

func Install(f func()) { hook = f } // unresolvable RHS: hook is open

func Setup() { hook = bound }

func Fire() { hook() }
`},
	}
	g := BuildCallGraph(loadPkgs(t, overlay))
	fire := nodeByName(t, g, "repro/internal/a.Fire")
	// Only bound and the Install parameter flow into hook; the open
	// fallback must include every address-taken compatible function —
	// which here is just bound (other is never referenced).
	if !hasCallee(fire, "repro/internal/a.bound") {
		t.Errorf("Fire should reach bound via fallback; calls: %v", calleeNames(fire))
	}
	if hasCallee(fire, "repro/internal/a.other") {
		t.Errorf("other is never address-taken; calls: %v", calleeNames(fire))
	}
}
