package analysis

import "testing"

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
