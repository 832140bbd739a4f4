// Package analysis is m3vet's static-analysis framework: a small,
// stdlib-only (go/ast, go/parser, go/types, go/token) reimplementation
// of the parts of golang.org/x/tools/go/analysis this repository needs
// to enforce its simulation invariants.
//
// The paper's evaluation rests on two properties that ordinary Go code
// review does not protect: the cycle-accurate simulation must be
// deterministic (identical configurations produce identical schedules),
// and PEs must interact only through their DTU. Each Analyzer in this
// package encodes one such invariant as a mechanical check; cmd/m3vet
// runs them all over every package of the module and fails CI on any
// diagnostic. See docs/ANALYSIS.md for the rule catalogue.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one independently testable rule. It sets exactly one of
// Run and RunModule.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //m3vet:allow comments.
	Name string
	// Doc is a one-line description of the protected invariant.
	Doc string
	// Run inspects one type-checked package and reports findings on the
	// pass.
	Run func(*Pass)
	// RunModule inspects every package at once, over the call graph
	// built for them (the interprocedural timetaint pass).
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module analyzer's run.
type ModulePass struct {
	Analyzer *Analyzer
	// Graph is the conservative call graph over every module package.
	Graph *CallGraph

	report func(Diagnostic)
}

// Report records a finding with its witness chain.
func (p *ModulePass) Report(pos token.Position, message string, chain []Fact) {
	p.report(Diagnostic{Pos: pos, Rule: p.Analyzer.Name, Message: message, Chain: chain})
}

// Fact is one step of a finding's witness chain: a position and a note
// explaining what the dataflow engine concluded there ("kernel.run
// calls dtu.Send", "dtu.Send writes Network.PacketsSent").
type Fact struct {
	Pos  token.Position
	Note string
}

// Diagnostic is one finding, printed as "file:line:col: rule: message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string

	// Chain is the interprocedural witness for the finding, outermost
	// step first. Empty for per-package rules.
	Chain []Fact
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// All returns the full analyzer set in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		ErrCheckLite,
		MagicCost,
		CrossLayer,
		FaultSite,
		ObsGuard,
		ObsName,
		CapFlow,
		TimeTaint,
	}
}

// AllowPrefix introduces a suppression comment:
//
//	//m3vet:allow <rule> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory — a suppression without a recorded justification
// is itself a diagnostic, and so is one that suppresses nothing.
const AllowPrefix = "m3vet:allow"

// allowKey identifies one (file, line, rule) suppression slot.
type allowKey struct {
	file string
	line int
	rule string
}

// allow is one well-formed //m3vet:allow comment.
type allow struct {
	pos    token.Position
	rule   string
	nested bool // in a nested module's package (Package.Nested)
	used   bool
}

// collectAllows parses the //m3vet:allow comments of a package. It
// returns the well-formed ones and diagnostics for malformed or
// unknown-rule comments (those must never silently disable nothing).
func collectAllows(pkg *Package, known map[string]bool) ([]*allow, []Diagnostic) {
	var allows []*allow
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, AllowPrefix))
				switch {
				case len(fields) < 2:
					bad = append(bad, Diagnostic{Pos: pos, Rule: "m3vet",
						Message: "malformed allow comment: want //m3vet:allow <rule> <reason>"})
				case !known[fields[0]]:
					bad = append(bad, Diagnostic{Pos: pos, Rule: "m3vet",
						Message: fmt.Sprintf("allow comment names unknown rule %q", fields[0])})
				default:
					allows = append(allows, &allow{pos: pos, rule: fields[0], nested: pkg.Nested})
				}
			}
		}
	}
	return allows, bad
}

// SortDiagnostics orders diagnostics by file, line, column, rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// CheckModule loads every package of the module rooted at dir and runs
// the analyzers over them. Load (parse or type) errors are returned as
// errors, not diagnostics: the module must build before it can be
// vetted.
func CheckModule(dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	paths, err := l.ListPackages()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return checkPackages(pkgs, analyzers), nil
}

// checkPackages is the load-free core of CheckModule, shared with the
// overlay-fixture tests: it runs the per-package analyzers over each
// package, builds the call graph once if a module analyzer is among
// them, applies the allow comments, and reports every allow of a rule
// that ran but suppressed nothing as stale (outside nested modules).
func checkPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	// One allow set for the whole module: a line-level allow comment
	// applies to per-package and module findings alike. It covers its
	// own line (trailing comment) and the next one (standalone comment
	// above the flagged statement).
	var allows []*allow
	slots := make(map[allowKey][]*allow)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkgAllows, bad := collectAllows(pkg, known)
		diags = append(diags, bad...)
		for _, a := range pkgAllows {
			allows = append(allows, a)
			for _, line := range []int{a.pos.Line, a.pos.Line + 1} {
				key := allowKey{a.pos.Filename, line, a.rule}
				slots[key] = append(slots[key], a)
			}
		}
	}
	report := func(d Diagnostic) {
		slot := slots[allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}]
		for _, a := range slot {
			a.used = true
		}
		if len(slot) == 0 {
			diags = append(diags, d)
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
			}
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		a.RunModule(&ModulePass{Analyzer: a, Graph: graph, report: report})
	}
	for _, a := range allows {
		if ran[a.rule] && !a.used && !a.nested {
			diags = append(diags, Diagnostic{Pos: a.pos, Rule: "m3vet",
				Message: fmt.Sprintf("stale allow comment: no %s finding on this line or the next to suppress", a.rule)})
		}
	}
	SortDiagnostics(diags)
	return diags
}
