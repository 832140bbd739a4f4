package analysis

import (
	"strings"
	"testing"
)

// capFixture: an app-layer package touching hw-layer APIs. NodeID may
// not cross into app at all; an unexported field makes a struct an
// opaque handle and is fine.
var capFixture = map[string]map[string]string{
	"repro/internal/kif": {"kif.go": `package kif

type CapSel uint64
`},
	"repro/internal/noc": {"noc.go": `package noc

type NodeID int
`},
	"repro/internal/dtu": {"dtu.go": `package dtu

import (
	"repro/internal/kif"
	"repro/internal/noc"
)

// Leaky carries an exported node id.
type Leaky struct{ Node noc.NodeID }

// Opaque hides its routing state: an opaque reply handle.
type Opaque struct{ node noc.NodeID }

func GetLeaky() *Leaky   { return &Leaky{} }
func GetOpaque() *Opaque { return &Opaque{} }

func Ping(n noc.NodeID)      {}
func Deleg(s kif.CapSel)     {}
func UseOpaque(o *Opaque)    {}
`},
	"repro/internal/m3": {"m3.go": `package m3

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
)

func App() {
	dtu.Ping(noc.NodeID(3))    // NodeID arg: app->hw, banned
	dtu.Deleg(kif.CapSel(7))   // CapSel arg: app->hw, banned
	l := dtu.GetLeaky()        // exported NodeID field result: banned
	l.Node = noc.NodeID(5)     // store into an hw-layer NodeID field: banned
	o := dtu.GetOpaque()       // opaque handle: fine
	dtu.UseOpaque(o)           // opaque handle arg: fine
}
`},
}

func TestCapFlowLayerCrossings(t *testing.T) {
	res := runModuleOn(t, []*Analyzer{CapFlow}, capFixture)
	diags := diagsOf(res, "capflow")
	if len(diags) != 4 {
		t.Fatalf("want 4 capflow findings, got %d:\n%s", len(diags), diagText(diags))
	}
	// Each crossing is named; the store names the field by its
	// declaring type, which must not degrade to "(struct)".
	want := []string{
		"into hw layer (repro/internal/dtu.Ping)",
		"into hw layer (repro/internal/dtu.Deleg)",
		"returned from hw layer (repro/internal/dtu.GetLeaky) into app layer (repro/internal/m3.App)",
		"into hw layer field repro/internal/dtu.Leaky.Node",
	}
	for _, w := range want {
		found := false
		for _, d := range diags {
			found = found || strings.Contains(d.Message, w)
		}
		if !found {
			t.Errorf("no finding mentions %q:\n%s", w, diagText(diags))
		}
	}
}

// The defect capflow caught when it landed: dtu.Message exported its
// reply-routing fields, so every message an application received
// handed it the sender's raw node id. With the fields unexported the
// message is an opaque reply capability and the same code is clean.
func TestCapFlowMutationExportedReplyRouting(t *testing.T) {
	overlay := func(fields string) map[string]map[string]string {
		return map[string]map[string]string{
			"repro/internal/noc": {"noc.go": `package noc

type NodeID int
`},
			"repro/internal/dtu": {"dtu.go": `package dtu

import "repro/internal/noc"

type Message struct {
	Data  []byte
	Label uint64
` + fields + `}

type DTU struct{ rx []*Message }

func (d *DTU) Fetch(ep int) *Message { return d.rx[ep] }
`},
			"repro/internal/m3": {"gate.go": `package m3

import "repro/internal/dtu"

func Recv(d *dtu.DTU, ep int) []byte {
	msg := d.Fetch(ep)
	return msg.Data
}
`},
		}
	}
	exported := "\tReplyNode noc.NodeID\n\tReplyEP, CreditEP int\n\tReplyLabel uint64\n"
	diags := diagsOf(runModuleOn(t, []*Analyzer{CapFlow}, overlay(exported)), "capflow")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "raw node id returned from hw layer (repro/internal/dtu.Fetch)") {
		t.Errorf("exported reply routing: want one raw-node-id finding at Fetch, got:\n%s", diagText(diags))
	}
	opaque := "\treplyNode noc.NodeID\n\treplyEP, creditEP int\n\treplyLabel uint64\n"
	if diags := diagsOf(runModuleOn(t, []*Analyzer{CapFlow}, overlay(opaque)), "capflow"); len(diags) != 0 {
		t.Errorf("opaque reply routing: want no finding, got:\n%s", diagText(diags))
	}
}

// Kernel<->hw NodeID traffic is legitimate (the kernel programs DTU
// endpoints with node ids); only app-layer contact is banned. kif
// itself is the sanctioned carrier for selectors.
func TestCapFlowAllowedCrossings(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/kif": {"kif.go": `package kif

type CapSel uint64

func Marshal(s CapSel) []byte { return nil }
`},
		"repro/internal/noc": {"noc.go": `package noc

type NodeID int
`},
		"repro/internal/dtu": {"dtu.go": `package dtu

import "repro/internal/noc"

func Configure(n noc.NodeID) {}
`},
		"repro/internal/core": {"core.go": `package core

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
)

func Activate(sel kif.CapSel) {
	dtu.Configure(noc.NodeID(1)) // kernel->hw node id: allowed
	_ = kif.Marshal(sel)         // selector into kif: the sanctioned channel
}
`},
	}
	res := runModuleOn(t, []*Analyzer{CapFlow}, overlay)
	if diags := diagsOf(res, "capflow"); len(diags) != 0 {
		t.Fatalf("want no capflow findings, got:\n%s", diagText(diags))
	}
}

func TestCapFlowMessages(t *testing.T) {
	res := runModuleOn(t, []*Analyzer{CapFlow}, capFixture)
	for _, d := range diagsOf(res, "capflow") {
		if !strings.Contains(d.Message, "kif syscall/delegation") &&
			!strings.Contains(d.Message, "translate it at the boundary") &&
			!strings.Contains(d.Message, "belongs to its own layer") {
			t.Errorf("message should explain the sanctioned channel: %s", d.Message)
		}
	}
}
