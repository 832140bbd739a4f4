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
	"maps"
	"sort"
	"strings"
)

// Analyzer is one independently testable rule.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //m3vet:allow comments.
	Name string
	// Doc is a one-line description of the protected invariant.
	Doc string
	// Run inspects one type-checked package and reports findings on the
	// pass.
	Run func(*Pass)
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

	// Key is a stable, position-independent identity of a module
	// finding ("capflow:app->hw:repro/internal/dtu.Ping:arg0"), used to
	// compare findings across runs. Per-package syntactic rules leave
	// it empty.
	Key string
	// Chain is the interprocedural witness for the finding, outermost
	// step first. Empty for syntactic rules.
	Chain []Fact
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// All returns the full analyzer set in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		NoGoroutine,
		ErrCheckLite,
		MagicCost,
		CrossLayer,
		FaultSite,
		DeadlineGuard,
		EpochFence,
		ObsGuard,
		MetricName,
		SLOName,
	}
}

// ModuleAnalyzer is a whole-module rule: it sees every package at
// once, plus the call graph built over them. The two dataflow passes
// (timetaint, capflow) are module analyzers; the per-package syntactic
// rules stay plain Analyzers.
type ModuleAnalyzer struct {
	// Name is the rule identifier used in diagnostics, finding keys
	// and //m3vet:allow comments.
	Name string
	// Doc is a one-line description of the protected invariant.
	Doc string
	// Run inspects the whole module and reports findings on the pass.
	Run func(*ModulePass)
}

// ModulePass carries one module analyzer's run.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	// Pkgs are all module packages in path order.
	Pkgs []*Package
	// Graph is the conservative module call graph.
	Graph *CallGraph

	report func(Diagnostic)
}

// Report records a finding with a stable key and a witness chain.
func (p *ModulePass) Report(pos token.Position, key, message string, chain []Fact) {
	p.report(Diagnostic{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: message,
		Key:     p.Analyzer.Name + ":" + key,
		Chain:   chain,
	})
}

// AllModule returns the module-level analyzer set in a fixed order.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		TimeTaint,
		CapFlow,
	}
}

// AllowPrefix introduces a suppression comment:
//
//	//m3vet:allow <rule> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory — a suppression without a recorded justification
// is itself a diagnostic.
const AllowPrefix = "m3vet:allow"

// allowKey identifies one (file, line, rule) suppression slot.
type allowKey struct {
	file string
	line int
	rule string
}

// collectAllows parses //m3vet:allow comments of a package. It returns
// the suppression set and diagnostics for malformed or unknown-rule
// comments (those must never silently disable nothing).
func collectAllows(pkg *Package, known map[string]bool) (map[allowKey]bool, []Diagnostic) {
	allows := make(map[allowKey]bool)
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
					// Suppress on the comment's own line (trailing
					// comment) and on the next line (standalone comment
					// above the flagged statement).
					allows[allowKey{pos.Filename, pos.Line, fields[0]}] = true
					allows[allowKey{pos.Filename, pos.Line + 1, fields[0]}] = true
				}
			}
		}
	}
	return allows, bad
}

// knownRules is the set of rule names an //m3vet:allow comment may
// name: the given per-package analyzers plus every module-level rule.
func knownRules(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, m := range AllModule() {
		known[m.Name] = true
	}
	return known
}

// RunAnalyzers executes the analyzers over one package and returns the
// surviving (non-suppressed) diagnostics, position-sorted.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allows, diags := collectAllows(pkg, knownRules(analyzers))
	report := func(d Diagnostic) {
		if !allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			diags = append(diags, d)
		}
	}
	runPackage(pkg, analyzers, report)
	SortDiagnostics(diags)
	return diags
}

// runPackage runs the per-package analyzers over pkg.
func runPackage(pkg *Package, analyzers []*Analyzer, report func(Diagnostic)) {
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
	}
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

// CheckModule loads every package of the module rooted at dir, runs the
// per-package analyzers over each, then builds the call graph once and
// runs the interprocedural passes (AllModule). Load (parse or type)
// errors are returned as errors, not diagnostics: the module must build
// before it can be vetted.
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
// overlay-fixture tests.
func checkPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// One allow set for the whole module: a line-level allow comment
	// applies to per-package and module findings alike.
	known := knownRules(analyzers)
	allows := make(map[allowKey]bool)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkgAllows, bad := collectAllows(pkg, known)
		maps.Copy(allows, pkgAllows)
		diags = append(diags, bad...)
	}
	report := func(d Diagnostic) {
		if !allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			diags = append(diags, d)
		}
	}
	for _, pkg := range pkgs {
		runPackage(pkg, analyzers, report)
	}
	graph := BuildCallGraph(pkgs)
	for _, m := range AllModule() {
		m.Run(&ModulePass{Analyzer: m, Pkgs: pkgs, Graph: graph, report: report})
	}
	SortDiagnostics(diags)
	return diags
}
