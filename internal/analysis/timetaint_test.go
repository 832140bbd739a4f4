package analysis

import (
	"strings"
	"testing"
)

// A wall-clock value laundered through a helper function and stored
// into sim-facing state must be flagged, with a chain running
// source -> call -> store. The same helper's value kept host-side must
// not be.
func TestTimeTaintInterprocedural(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/sim": {"sim.go": `package sim

var LastStamp int64
`},
		"repro/internal/toolx": {"tool.go": `package toolx

import (
	"time"

	"repro/internal/sim"
)

var hostOnly int64 // not sim-facing: storing here is fine

func stamp() int64 { return time.Now().UnixNano() }

func Record() {
	v := stamp()
	sim.LastStamp = v // flagged
	hostOnly = v      // not flagged
}
`},
	}
	res := runModuleOn(t, []*Analyzer{TimeTaint}, overlay)
	diags := diagsOf(res, "timetaint")
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 timetaint finding, got %d:\n%s", len(diags), diagText(diags))
	}
	d := diags[0]
	if !strings.Contains(d.Message, "sim.LastStamp") {
		t.Errorf("message should name the sim location: %s", d.Message)
	}
	if len(d.Chain) < 2 {
		t.Fatalf("chain too short: %v", d.Chain)
	}
	if !strings.Contains(d.Chain[0].Note, "time.Now") {
		t.Errorf("chain should start at the source: %q", d.Chain[0].Note)
	}
}

// Map iteration order is a source; feeding an order-dependent value to
// the JSON encoder is a sink. Collecting keys for sorting is the
// sanctioned pattern and must stay clean.
func TestTimeTaintMapOrder(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/toolx": {"tool.go": `package toolx

import "encoding/json"

func Dump(m map[string]int) ([]byte, error) {
	var names []string
	for k := range m { // key-collect loop: allowed
		names = append(names, k)
	}
	var first string
	for k := range m { // order-dependent pick
		first = k
		break
	}
	_ = names
	return json.Marshal(first)
}
`},
	}
	res := runModuleOn(t, []*Analyzer{TimeTaint}, overlay)
	diags := diagsOf(res, "timetaint")
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 timetaint finding, got %d:\n%s", len(diags), diagText(diags))
	}
	if !strings.Contains(diags[0].Message, "json.Marshal") {
		t.Errorf("sink should be the JSON encoder: %s", diags[0].Message)
	}
	if !strings.Contains(diags[0].Message, "randomized order") {
		t.Errorf("source should be map order: %s", diags[0].Message)
	}
}

// Closure free variables: taint flowing into a captured local inside a
// literal must reach stores made by the enclosing function and vice
// versa.
func TestTimeTaintClosureCapture(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/sim": {"sim.go": `package sim

var Seeded int64
`},
		"repro/internal/toolx": {"tool.go": `package toolx

import (
	"time"

	"repro/internal/sim"
)

func Arm() {
	var v int64
	set := func() { v = time.Now().Unix() }
	set()
	sim.Seeded = v
}
`},
	}
	res := runModuleOn(t, []*Analyzer{TimeTaint}, overlay)
	diags := diagsOf(res, "timetaint")
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 timetaint finding, got %d:\n%s", len(diags), diagText(diags))
	}
	if !strings.Contains(diags[0].Message, "sim.Seeded") {
		t.Errorf("finding should name sim.Seeded: %s", diags[0].Message)
	}
}

// The defect timetaint caught when it landed: m3fs's CheckInvariants
// walked its inodes in map order and named the first offender in its
// error text, which the service stored. nodeterminism saw the walk but
// an allow comment called it order-independent; only the dataflow
// shows that the order reaches simulation state.
func TestTimeTaintMutationCheckInvariantsMapOrder(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/m3fs": {"fscore.go": `package m3fs

import "fmt"

type Inode struct{ Links int }

type FsCore struct{ inodes map[uint64]*Inode }

func (fs *FsCore) CheckInvariants() error {
	//m3vet:allow nodeterminism validation only accumulates commutative counts; on a consistent image the verdict is order-independent
	for n, ino := range fs.inodes {
		if ino.Links < 0 {
			return fmt.Errorf("inode %d: negative link count", n)
		}
	}
	return nil
}

type Service struct {
	fs      *FsCore
	lastErr string
}

func (s *Service) fsck() {
	if err := s.fs.CheckInvariants(); err != nil {
		s.lastErr = err.Error()
	}
}
`},
	}
	res := runModuleOn(t, []*Analyzer{NoDeterminism, TimeTaint}, overlay)
	checkFindings(t, res, []finding{{26, "timetaint"}})
	if len(res) == 1 && !strings.Contains(res[0].Message, "m3fs.Service.lastErr") {
		t.Errorf("finding should name the stored field: %s", res[0].Message)
	}
}
