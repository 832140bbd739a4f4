package analysis

import "testing"

func TestNoDeterminismFlagsViolations(t *testing.T) {
	src := `package core

import (
	"math/rand"
	"time"
)

func f(m map[int]string) int {
	t := time.Now()
	_ = time.Since(t)
	for k, v := range m {
		_, _ = k, v
	}
	return rand.Int()
}
`
	got := runOn(t, []*Analyzer{NoDeterminism}, "repro/internal/core", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, []finding{
		{4, "nodeterminism"},  // math/rand import
		{9, "nodeterminism"},  // time.Now
		{10, "nodeterminism"}, // time.Since
		{11, "nodeterminism"}, // map range
	})
}

func TestNoDeterminismKeyCollectIdiomIsClean(t *testing.T) {
	src := `package core

import "sort"

func keys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func slices(s []int) {
	for i, v := range s {
		_, _ = i, v
	}
}
`
	got := runOn(t, []*Analyzer{NoDeterminism}, "repro/internal/core", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}

func TestNoDeterminismIgnoresHostSidePackages(t *testing.T) {
	src := `package bench

import "time"

func wall() time.Time { return time.Now() }

func iter(m map[int]int) {
	for k := range m {
		_ = k
	}
}
`
	// The bench harness runs on the host; wall-clock use there is fine.
	got := runOn(t, []*Analyzer{NoDeterminism}, "repro/internal/bench", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}

func TestNoDeterminismValueAppendIsStillFlagged(t *testing.T) {
	src := `package core

func values(m map[string]int) []int {
	vs := make([]int, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	return vs
}
`
	// Appending values (not keys) produces a nondeterministically
	// ordered slice with no sortable handle — must be flagged.
	got := runOn(t, []*Analyzer{NoDeterminism}, "repro/internal/core", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, []finding{{5, "nodeterminism"}})
}

// The defects nodeterminism caught when it landed: the kernel's
// revokeAll and findServiceSel walked a capability table in map order.
// revokeAll's order is the order of session closes and memory releases,
// so the walk moved events between runs. The sorted walk that replaced
// both is clean.
func TestNoDeterminismMutationCapTableWalks(t *testing.T) {
	src := `package core

import "sort"

type CapSel uint64

type Capability struct{ Obj any }

type CapTable struct{ caps map[CapSel]*Capability }

func (t *CapTable) revoke(sel CapSel, onDrop func(*Capability)) { delete(t.caps, sel) }

func (t *CapTable) revokeAll(onDrop func(*Capability)) {
	for sel := range t.caps {
		t.revoke(sel, onDrop)
	}
}

func findServiceSel(t *CapTable, svc any) CapSel {
	for sel, c := range t.caps {
		if c.Obj == svc {
			return sel
		}
	}
	return 0
}

func (t *CapTable) revokeAllSorted(onDrop func(*Capability)) {
	sels := make([]CapSel, 0, len(t.caps))
	for sel := range t.caps {
		sels = append(sels, sel)
	}
	sort.Slice(sels, func(i, j int) bool { return sels[i] < sels[j] })
	for _, sel := range sels {
		t.revoke(sel, onDrop)
	}
}
`
	got := runOn(t, []*Analyzer{NoDeterminism}, "repro/internal/core", map[string]string{"caps.go": src}, nil)
	checkFindings(t, got, []finding{
		{14, "nodeterminism"}, // revokeAll
		{20, "nodeterminism"}, // findServiceSel
	})
}
