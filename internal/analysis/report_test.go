package analysis

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestBuildReportRelativizesPaths(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod", "root")
	diags := []Diagnostic{{
		Rule:    "timetaint",
		Key:     "timetaint:src->sink",
		Pos:     token.Position{Filename: filepath.Join(root, "internal", "x", "x.go"), Line: 3, Column: 1},
		Message: "m",
		Chain: []Fact{{
			Pos:  token.Position{Filename: filepath.Join(root, "internal", "y", "y.go"), Line: 9},
			Note: "step",
		}},
	}}
	rep := BuildReport(root, diags)
	if got := rep.Findings[0].File; got != "internal/x/x.go" {
		t.Errorf("finding file = %q, want module-relative", got)
	}
	if got := rep.Findings[0].Chain[0].File; got != "internal/y/y.go" {
		t.Errorf("chain file = %q, want module-relative", got)
	}
	// And the document must survive a JSON round trip.
	path := filepath.Join(t.TempDir(), "sub", "report.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Findings) != 1 || len(back.Findings[0].Chain) != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}
