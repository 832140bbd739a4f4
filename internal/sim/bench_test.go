package sim

import "testing"

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
// process and back.
func BenchmarkProcessSwitch(b *testing.B) {
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
