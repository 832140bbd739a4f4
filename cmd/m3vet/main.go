// Command m3vet runs the repository's determinism and isolation
// analyzers (internal/analysis) over every package of the module and
// prints one "file:line:col: rule: message" diagnostic per finding.
// A finding of the interprocedural timetaint pass is followed by its
// witness chain, one indented step per line. It exits non-zero if
// anything is flagged, so CI can gate on it:
//
//	go run ./cmd/m3vet ./...
//
// Arguments are accepted for `go vet`-style muscle memory but the tool
// always analyzes the whole module containing the working directory;
// the invariants it checks are module-global (import-graph rules have
// no meaning for a single package). Suppress any finding with a
// `//m3vet:allow <rule> <reason>` comment on or above the flagged
// line; an allow comment that suppresses nothing is itself a finding.
// See docs/ANALYSIS.md for the rule catalogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}

	diags, err := analysis.CheckModule(root, analysis.All())
	if err != nil {
		fatal(err)
	}

	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		for _, step := range d.Chain {
			sname := step.Pos.Filename
			if rel, err := filepath.Rel(root, sname); err == nil {
				sname = rel
			}
			fmt.Printf("\t%s:%d: %s\n", sname, step.Pos.Line, step.Note)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "m3vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "m3vet:", err)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
