package obs

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

const (
	testSLOAvail = "test_avail"
	testSLOTail  = "test_tail_p99"
)

// availCfg: 10-bucket window of 1000 cycles, short window 2 buckets,
// burn thresholds 2 on both windows, 10% error budget.
func availCfg() SLOConfig {
	return SLOConfig{Objective: 0.9, Window: 1000, Buckets: 10,
		ShortBuckets: 2, SlowBurn: 2, FastBurn: 2}
}

func TestSLOBreachAndRecovery(t *testing.T) {
	s := NewSLOSet()
	o := s.Objective(testSLOAvail, availCfg())
	var events []BreachEvent
	o.Subscribe(func(ev BreachEvent) { events = append(events, ev) })

	// All good: healthy, burn 0.
	for i := 0; i < 10; i++ {
		o.Observe(sTime(i*10), 0, true)
	}
	if o.State() != SLOHealthy {
		t.Fatalf("state = %v after good traffic", o.State())
	}
	// All bad: bad fraction → 1.0, burn → 10 ≥ both thresholds.
	for i := 0; i < 30; i++ {
		o.Observe(sTime(200+i), 0, false)
	}
	if o.State() != SLOBreached {
		t.Fatalf("state = %v after bad burst, want BREACHED", o.State())
	}
	if len(events) != 1 || events[0].State != SLOBreached {
		t.Fatalf("breach events = %+v, want one BREACHED transition", events)
	}
	if events[0].BurnLong < 2 || events[0].BurnShort < 2 {
		t.Fatalf("breach burn rates = %.2f/%.2f, want >= 2", events[0].BurnLong, events[0].BurnShort)
	}
	// Sustained good traffic rotates the bad buckets out of the window.
	for i := 0; i < 200; i++ {
		o.Observe(sTime(300+i*10), 0, true)
	}
	if o.State() != SLOHealthy {
		t.Fatalf("state = %v after recovery, want healthy", o.State())
	}
	if len(events) != 2 || events[1].State != SLOHealthy {
		t.Fatalf("events = %+v, want BREACHED then healthy", events)
	}
	if o.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", o.Transitions())
	}
}

func TestSLOLatencyBound(t *testing.T) {
	s := NewSLOSet()
	o := s.Objective(testSLOTail, SLOConfig{Objective: 0.5, LatencyBound: 100,
		Window: 1000, Buckets: 10, ShortBuckets: 2, SlowBurn: 1, FastBurn: 1})
	o.Observe(1, 50, true)  // good: fast and ok
	o.Observe(2, 150, true) // bad: ok but over bound
	o.Observe(3, 50, false) // bad: fast but failed
	good, total := o.Counts()
	if good != 1 || total != 3 {
		t.Fatalf("counts = %d/%d, want 1/3", good, total)
	}
}

func TestSLOSetOrderingAndSnapshot(t *testing.T) {
	build := func() *SLOSet {
		s := NewSLOSet()
		s.Objective(testSLOTail, SLOConfig{Objective: 0.99, LatencyBound: 500, Window: 1 << 12})
		s.Objective(testSLOAvail, availCfg())
		s.ObserveAll(100, 50, true)
		s.ObserveAll(200, 600, true)
		s.ObserveAll(300, 10, false)
		return s
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteSnapshot(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteSnapshot(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	s := build()
	all := s.All()
	if len(all) != 2 || all[0].Name() != testSLOTail || all[1].Name() != testSLOAvail {
		t.Fatalf("registration order not preserved: %v", all)
	}
	if s.Get(testSLOAvail) != all[1] {
		t.Fatalf("Get returned wrong objective")
	}
}

func TestSLOReregistrationPanicsOnMismatch(t *testing.T) {
	s := NewSLOSet()
	s.Objective(testSLOAvail, availCfg())
	if o := s.Objective(testSLOAvail, availCfg()); o == nil {
		t.Fatalf("same-config re-registration should return the objective")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("different-config re-registration did not panic")
		}
	}()
	s.Objective(testSLOAvail, SLOConfig{Objective: 0.5, Window: 10})
}

func TestSLONilSafety(t *testing.T) {
	var s *SLOSet
	if o := s.Objective(testSLOAvail, availCfg()); o != nil {
		t.Fatalf("nil set returned non-nil objective")
	}
	s.ObserveAll(1, 1, true) // must not panic
	var o *SLO
	o.Observe(1, 1, true)
	o.Subscribe(func(BreachEvent) {})
	if o.State() != SLOHealthy {
		t.Fatalf("nil SLO not healthy")
	}
	if l, sh := o.BurnRates(); l != 0 || sh != 0 {
		t.Fatalf("nil SLO burn rates nonzero")
	}
	var tr *Tracer
	if tr.SLOs() != nil {
		t.Fatalf("nil tracer returned SLO set")
	}
}

func TestSLOWindowRotationClearsHistory(t *testing.T) {
	s := NewSLOSet()
	o := s.Objective(testSLOAvail, availCfg())
	for i := 0; i < 10; i++ {
		o.Observe(sTime(i), 0, false)
	}
	if l, _ := o.BurnRates(); l < 2 {
		t.Fatalf("burn = %.2f, want >= 2 after bad burst", l)
	}
	// One observation a full window later: every old bucket rotates out.
	o.Observe(sTime(5000), 0, true)
	if l, _ := o.BurnRates(); l != 0 {
		t.Fatalf("burn = %.2f after full-window gap, want 0", l)
	}
}

func sTime(i int) sim.Time { return sim.Time(i) }
