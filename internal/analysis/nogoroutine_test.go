package analysis

import (
	"strings"
	"testing"
)

const goroutineFixture = `package p

func f(ch chan int) {
	go f(ch)
	ch <- 1
	_ = <-ch
	select {}
	close(ch)
	ch2 := make(chan int)
	for v := range ch2 {
		_ = v
	}
}
`

func TestNoGoroutineFlagsConcurrencyOutsideSim(t *testing.T) {
	got := runOn(t, []*Analyzer{NoGoroutine}, "repro/internal/m3", map[string]string{"f.go": goroutineFixture}, nil)
	checkFindings(t, got, []finding{
		{4, "nogoroutine"},  // go statement
		{5, "nogoroutine"},  // channel send
		{6, "nogoroutine"},  // channel receive
		{7, "nogoroutine"},  // select
		{8, "nogoroutine"},  // close
		{9, "nogoroutine"},  // make(chan)
		{10, "nogoroutine"}, // range over channel
	})
	// Each diagnostic points at a replacement the engine offers.
	want := []string{
		"go statement: spawn a sim.Process",
		"channel send: queue requests on a sim.Station or wake a process with a sim.Signal",
		"channel receive: serve requests from a sim.Station or block a process on a sim.Signal",
		"select statement: use sim.Signal waits",
		"close of channel: wake all waiters with sim.Signal.Broadcast",
		"channel creation: use a sim.Station or a sim.Signal",
		"range over channel: serve requests from a sim.Station",
	}
	for i, d := range got {
		if i < len(want) && !strings.HasPrefix(d.Message, want[i]) {
			t.Errorf("line %d: message %q, want prefix %q", d.Pos.Line, d.Message, want[i])
		}
	}
}

func TestNoGoroutineFlagsEngineToo(t *testing.T) {
	// internal/sim gets no exemption: processes are iter.Pull
	// coroutines, so the engine itself needs no go statements or
	// channels either.
	got := runOn(t, []*Analyzer{NoGoroutine}, "repro/internal/sim", map[string]string{"f.go": goroutineFixture}, nil)
	checkFindings(t, got, []finding{
		{4, "nogoroutine"}, {5, "nogoroutine"}, {6, "nogoroutine"}, {7, "nogoroutine"},
		{8, "nogoroutine"}, {9, "nogoroutine"}, {10, "nogoroutine"},
	})
}

func TestNoGoroutineCleanCodeIsQuiet(t *testing.T) {
	src := `package p

func f(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}
`
	got := runOn(t, []*Analyzer{NoGoroutine}, "repro/internal/m3", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}
