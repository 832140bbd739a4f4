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
	res := runModuleOn(t, capFixture)
	diags := diagsOf(res, "capflow")
	if len(diags) != 4 {
		t.Fatalf("want 4 capflow findings, got %d:\n%s", len(diags), diagText(diags))
	}
	// The store key names the field by its declaring type; it must not
	// degrade to "(struct)" when field owners are not registered.
	wantKeys := map[string]bool{
		"capflow:app->hw:repro/internal/dtu.Ping:arg0":        true,
		"capflow:app->hw:repro/internal/dtu.Deleg:arg0":       true,
		"capflow:hw->app:repro/internal/dtu.GetLeaky:result":  true,
		"capflow:app->hw:store:repro/internal/dtu.Leaky.Node": true,
	}
	for _, d := range diags {
		if !wantKeys[d.Key] {
			t.Errorf("unexpected finding key %q: %s", d.Key, d.Message)
		}
		delete(wantKeys, d.Key)
	}
	for k := range wantKeys {
		t.Errorf("missing finding %q", k)
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
	res := runModuleOn(t, overlay)
	if diags := diagsOf(res, "capflow"); len(diags) != 0 {
		t.Fatalf("want no capflow findings, got:\n%s", diagText(diags))
	}
}

func TestCapFlowMessages(t *testing.T) {
	res := runModuleOn(t, capFixture)
	for _, d := range diagsOf(res, "capflow") {
		if !strings.Contains(d.Message, "kif syscall/delegation") &&
			!strings.Contains(d.Message, "translate it at the boundary") &&
			!strings.Contains(d.Message, "belongs to its own layer") {
			t.Errorf("message should explain the sanctioned channel: %s", d.Message)
		}
	}
}
