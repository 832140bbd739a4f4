package sim

import (
	"fmt"
	"testing"
)

// BenchmarkSchedule times one Schedule plus the step that runs it: a
// chain of b.N events, each scheduling the next.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleSparse is BenchmarkSchedule with events about 1500
// cycles apart, so every pop has to cross most of the wheel's empty
// one-cycle buckets: the case the dense chain cannot show.
func BenchmarkScheduleSparse(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.Schedule(Time(1400+n%200), tick)
		}
	}
	e.Schedule(1500, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessSwitch times one Process.Sleep round trip: engine to
// process and back. Two sleepers share the b.N Sleeps; their wake-ups
// tie every cycle, so each Sleep finds the other's wake-up due and
// parks instead of advancing the clock in place.
func BenchmarkProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		e.Spawn("sleeper", func(p *Process) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepInline times one Process.Sleep with nothing else
// queued: the wake-up would be the next event, so the process advances
// the clock in place without a coroutine switch.
func BenchmarkSleepInline(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkParkInPlace times one park whose wake-up comes after k
// callbacks queued at the same cycle: the process runs the callbacks
// and its own wake-up on its stack and returns without a coroutine
// switch (Process.park).
func BenchmarkParkInPlace(b *testing.B) {
	for _, k := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			noop := func() {}
			e.Spawn("parker", func(p *Process) {
				for i := 0; i < b.N; i++ {
					for j := 0; j < k; j++ {
						e.Schedule(1, noop)
					}
					e.Schedule(1, p.Waker())
					p.Park()
				}
			})
			b.ResetTimer()
			e.Run()
		})
	}
}
