package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// runOn type-checks an in-memory fixture package (plus overlay
// dependencies) and runs the given analyzers over it.
func runOn(t *testing.T, analyzers []*Analyzer, path string, files map[string]string, deps map[string]map[string]string) []Diagnostic {
	t.Helper()
	overlay := map[string]map[string]string{path: files}
	for p, f := range deps {
		overlay[p] = f
	}
	l := NewOverlayLoader("repro", overlay)
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return RunAnalyzers(pkg, analyzers)
}

// runModuleOn type-checks the overlay and runs the full module
// pipeline (call graph, module analyzers) with no per-package
// analyzers.
func runModuleOn(t *testing.T, overlay map[string]map[string]string) []Diagnostic {
	t.Helper()
	return checkPackages(loadPkgs(t, overlay), nil)
}

func diagsOf(diags []Diagnostic, rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

// finding is the (line, rule) fingerprint of one expected diagnostic.
type finding struct {
	line int
	rule string
}

func checkFindings(t *testing.T, got []Diagnostic, want []finding) {
	t.Helper()
	var gotf []finding
	for _, d := range got {
		gotf = append(gotf, finding{d.Pos.Line, d.Rule})
	}
	if fmt.Sprint(gotf) != fmt.Sprint(want) {
		t.Errorf("findings = %v, want %v\nfull diagnostics:\n%s", gotf, want, diagText(got))
	}
}

func diagText(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintln(&b, "  ", d)
	}
	return b.String()
}

func TestAllowSuppression(t *testing.T) {
	src := `package noc

func f(m map[int]int) {
	//m3vet:allow nodeterminism the loop only sums, which is commutative
	for _, v := range m {
		_ = v
	}
	for _, v := range m { //m3vet:allow nodeterminism trailing comment form
		_ = v
	}
	for _, v := range m { // line 11: not suppressed
		_ = v
	}
}
`
	got := runOn(t, All(), "repro/internal/noc", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, []finding{{11, "nodeterminism"}})
}

func TestAllowCommentValidation(t *testing.T) {
	src := `package noc

//m3vet:allow nodeterminism
var a int

//m3vet:allow nosuchrule because reasons
var b int
`
	got := runOn(t, All(), "repro/internal/noc", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, []finding{{3, "m3vet"}, {6, "m3vet"}})
	if !strings.Contains(got[0].Message, "malformed") {
		t.Errorf("first diagnostic should mention malformed comment: %s", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "unknown rule") {
		t.Errorf("second diagnostic should mention unknown rule: %s", got[1].Message)
	}
}

func TestDiagnosticString(t *testing.T) {
	src := `package noc

import "time"

var T = time.Now()
`
	got := runOn(t, []*Analyzer{NoDeterminism}, "repro/internal/noc", map[string]string{"f.go": src}, nil)
	if len(got) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%s", len(got), diagText(got))
	}
	want := "f.go:5:9: nodeterminism: call to time.Now"
	if !strings.HasPrefix(got[0].String(), want) {
		t.Errorf("String() = %q, want prefix %q", got[0].String(), want)
	}
}
