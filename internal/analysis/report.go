package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// This file is the machine-readable side of m3vet: the -json report of
// findings with their witness chains.

// JSONFact is one serialized witness step.
type JSONFact struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Note string `json:"note,omitempty"`
}

// JSONFinding is one serialized diagnostic.
type JSONFinding struct {
	Rule    string     `json:"rule"`
	Key     string     `json:"key,omitempty"`
	File    string     `json:"file"`
	Line    int        `json:"line"`
	Col     int        `json:"col"`
	Message string     `json:"message"`
	Chain   []JSONFact `json:"chain,omitempty"`
}

// JSONReport is the full `m3vet -json` document.
type JSONReport struct {
	// Findings are the unsuppressed diagnostics.
	Findings []JSONFinding `json:"findings"`
}

// relPath rebases file paths onto the module root so reports are
// machine-independent.
func relPath(root, file string) string {
	if root == "" {
		return file
	}
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func jsonFact(root string, f Fact) JSONFact {
	return JSONFact{File: relPath(root, f.Pos.Filename), Line: f.Pos.Line, Col: f.Pos.Column, Note: f.Note}
}

// BuildReport serializes a module check result. root is the module
// directory used to relativize paths.
func BuildReport(root string, diags []Diagnostic) *JSONReport {
	rep := &JSONReport{Findings: []JSONFinding{}}
	for _, d := range diags {
		f := JSONFinding{
			Rule:    d.Rule,
			Key:     d.Key,
			File:    relPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Message: d.Message,
		}
		for _, step := range d.Chain {
			f.Chain = append(f.Chain, jsonFact(root, step))
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep
}

// WriteJSON writes the report to path (or stdout for "-"), indented
// for diffability.
func (r *JSONReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
