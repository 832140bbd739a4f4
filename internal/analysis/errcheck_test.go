package analysis

import "testing"

// errcheckDeps are minimal stand-ins for the real kernel and DTU
// packages, so the fixtures exercise the same package-path matching the
// analyzer performs on the real tree.
var errcheckDeps = map[string]map[string]string{
	"repro/internal/kif": {"kif.go": `package kif

type Error uint64

const OK Error = 0
`},
	"repro/internal/dtu": {"dtu.go": `package dtu

type DTU struct{}

func (d *DTU) Send(data []byte) error { return nil }

func (d *DTU) Fetch() int { return 0 }
`},
	"repro/internal/core": {"core.go": `package core

import "repro/internal/kif"

type Table struct{}

func (t *Table) Install(sel uint64) (int, kif.Error) { return 0, kif.OK }

func Boot() int { return 0 }
`},
}

func TestErrCheckLiteFlagsDroppedErrors(t *testing.T) {
	src := `package m3

import (
	"repro/internal/core"
	"repro/internal/dtu"
)

func f(d *dtu.DTU, tab *core.Table) {
	d.Send(nil)
	_ = d.Send(nil)
	_, _ = tab.Install(1)
	defer d.Send(nil)
}
`
	got := runOn(t, []*Analyzer{ErrCheckLite}, "repro/internal/m3", map[string]string{"f.go": src}, errcheckDeps)
	checkFindings(t, got, []finding{
		{9, "errchecklite"},  // bare statement
		{10, "errchecklite"}, // blank assign
		{11, "errchecklite"}, // all-blank multi-assign of kif.Error
		{12, "errchecklite"}, // deferred drop
	})
}

func TestErrCheckLiteCheckedAndForeignCallsAreQuiet(t *testing.T) {
	src := `package m3

import (
	"errors"

	"repro/internal/core"
	"repro/internal/dtu"
)

func local() error { return nil }

func f(d *dtu.DTU, tab *core.Table) error {
	if err := d.Send(nil); err != nil {
		return err
	}
	n, e := tab.Install(1)
	_, _ = n, e
	d.Fetch()
	core.Boot()
	local()
	errors.New("x")
	return nil
}
`
	// Checked results, error-free APIs, and errors from packages
	// outside core/dtu (local helpers, stdlib) are out of scope.
	got := runOn(t, []*Analyzer{ErrCheckLite}, "repro/internal/m3", map[string]string{"f.go": src}, errcheckDeps)
	checkFindings(t, got, nil)
}

// The defects errchecklite caught when it landed: sysRevoke dropped the
// error of the remote endpoint invalidation, which would leave revoked
// rights live in hardware (now invalidateEP), and libm3's Exit dropped
// its syscall send's error (kept, with an allow comment: the program is
// gone either way).
func TestErrCheckLiteMutationDroppedKernelErrors(t *testing.T) {
	deps := map[string]map[string]string{
		"repro/internal/dtu": {"dtu.go": `package dtu

type Endpoint struct{ Type int }

type DTU struct{}

func (d *DTU) ConfigureRemote(node, ep int, cfg Endpoint) error { return nil }

func (d *DTU) Send(ep int, data []byte) error { return nil }
`},
	}
	kernel := `package core

import "repro/internal/dtu"

func sysRevoke(d *dtu.DTU, nodes []int) {
	for _, n := range nodes {
		_ = d.ConfigureRemote(n, 3, dtu.Endpoint{})
	}
}
`
	got := runOn(t, []*Analyzer{ErrCheckLite}, "repro/internal/core", map[string]string{"syscalls.go": kernel}, deps)
	checkFindings(t, got, []finding{{7, "errchecklite"}})
	lib := `package m3

import "repro/internal/dtu"

func Exit(d *dtu.DTU, msg []byte) {
	// Best effort: an exiting program cannot do anything about errors.
	_ = d.Send(0, msg)
}
`
	got = runOn(t, []*Analyzer{ErrCheckLite}, "repro/internal/m3", map[string]string{"env.go": lib}, deps)
	checkFindings(t, got, []finding{{7, "errchecklite"}})
}
