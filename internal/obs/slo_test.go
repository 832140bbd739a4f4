package obs

import (
	"bytes"
	"math"
	"math/rand/v2"
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

// refSLO is the objective as it was before the running window sums:
// every observation re-sums the last Buckets and ShortBuckets ring
// slots. TestSLOMatchesReference and FuzzSLO require SLO to match it
// observation for observation, burn rates bit for bit.
type refSLO struct {
	cfg         SLOConfig
	ring        []sloBucket
	cur         int64
	good, total uint64
	state       SLOState
	transitions uint64
	events      []BreachEvent
}

func newRefSLO(cfg SLOConfig) *refSLO {
	c := cfg.withDefaults()
	return &refSLO{cfg: c, ring: make([]sloBucket, c.Buckets), cur: -1}
}

func (o *refSLO) rotate(at sim.Time) {
	w := max(o.cfg.Window/sim.Time(o.cfg.Buckets), 1)
	idx := int64(at / w)
	if o.cur < 0 {
		o.cur = idx
		return
	}
	if idx-o.cur >= int64(len(o.ring)) {
		for i := range o.ring {
			o.ring[i] = sloBucket{}
		}
		o.cur = idx
		return
	}
	for o.cur < idx {
		o.cur++
		o.ring[int(o.cur)%len(o.ring)] = sloBucket{}
	}
}

func (o *refSLO) Observe(at, latency sim.Time, ok bool) {
	good := ok
	if o.cfg.LatencyBound > 0 {
		good = ok && latency <= o.cfg.LatencyBound
	}
	o.rotate(at)
	b := &o.ring[int(o.cur)%len(o.ring)]
	b.total++
	o.total++
	if good {
		b.good++
		o.good++
	}
	long, short := o.BurnRates()
	next := o.state
	if long >= o.cfg.SlowBurn && short >= o.cfg.FastBurn {
		next = SLOBreached
	} else if long < o.cfg.SlowBurn {
		next = SLOHealthy
	}
	if next != o.state {
		o.state = next
		o.transitions++
		o.events = append(o.events, BreachEvent{Name: testSLOTail, At: at, State: next, BurnLong: long, BurnShort: short})
	}
}

func (o *refSLO) burn(n int) float64 {
	var good, total uint64
	for i := 0; i < n; i++ {
		b := o.ring[int(o.cur-int64(i)+int64(len(o.ring))*4)%len(o.ring)]
		good += b.good
		total += b.total
	}
	if total == 0 {
		return 0
	}
	budget := 1 - o.cfg.Objective
	if budget <= 0 {
		budget = 1e-9
	}
	return float64(total-good) / float64(total) / budget
}

func (o *refSLO) BurnRates() (float64, float64) {
	if o.cur < 0 {
		return 0, 0
	}
	return o.burn(o.cfg.Buckets), o.burn(o.cfg.ShortBuckets)
}

// sloObs is one observation of a decoded SLO stream.
type sloObs struct {
	at, latency sim.Time
	ok          bool
}

// decodeSLOStream turns fuzz bytes into an objective and observations.
// The first four bytes pick the ring (1–16 buckets, any short window
// from 1 bucket to all of them), the window and the objective; every
// following two bytes make one observation. Its top two bits pick the
// gap since the last one: none, less than a bucket, one bucket up to
// a window, or at least a whole window.
func decodeSLOStream(data []byte) (SLOConfig, []sloObs) {
	var cfg SLOConfig
	if len(data) < 4 {
		return cfg, nil
	}
	cfg = SLOConfig{
		Objective: 0.5 + float64(data[3]%5)/10,
		Window:    1 + sim.Time(data[2])*4,
		Buckets:   1 + int(data[0]%16),
		SlowBurn:  1 + float64(data[3]>>4&3)/2,
		FastBurn:  1 + float64(data[3]>>6)/2,
	}
	cfg.ShortBuckets = 1 + int(data[1])%cfg.Buckets
	if data[3]&8 != 0 {
		cfg.LatencyBound = 64
	}
	width := max(cfg.Window/sim.Time(cfg.Buckets), 1)
	var (
		out []sloObs
		at  sim.Time
	)
	for data = data[4:]; len(data) >= 2; data = data[2:] {
		g, v := sim.Time(data[0]&63), data[1]
		switch data[0] >> 6 {
		case 1:
			at += g % width
		case 2:
			at += width * (1 + g%sim.Time(cfg.Buckets))
		case 3:
			at += cfg.Window + g
		}
		out = append(out, sloObs{at: at, latency: sim.Time(v & 127), ok: v&128 == 0})
	}
	return cfg, out
}

// checkSLOAgainstRef feeds the observations to an SLO and to refSLO and
// compares state, transitions, breach events, counts and burn rates
// after every one. It returns the reference's breach events.
func checkSLOAgainstRef(t testing.TB, cfg SLOConfig, stream []sloObs) []BreachEvent {
	t.Helper()
	o := NewSLOSet().Objective(testSLOTail, cfg)
	ref := newRefSLO(cfg)
	var got []BreachEvent
	o.Subscribe(func(ev BreachEvent) { got = append(got, ev) })
	for i, ob := range stream {
		o.Observe(ob.at, ob.latency, ob.ok)
		ref.Observe(ob.at, ob.latency, ob.ok)
		gl, gs := o.BurnRates()
		wl, ws := ref.BurnRates()
		gg, gt := o.Counts()
		if math.Float64bits(gl) != math.Float64bits(wl) || math.Float64bits(gs) != math.Float64bits(ws) ||
			o.State() != ref.state || o.Transitions() != ref.transitions || gg != ref.good || gt != ref.total ||
			len(got) != len(ref.events) || (len(got) > 0 && got[len(got)-1] != ref.events[len(got)-1]) {
			t.Fatalf("observation %d %+v (config %+v): burn %v/%v state %v transitions %d counts %d/%d events %d, "+
				"reference burn %v/%v state %v transitions %d counts %d/%d events %d",
				i, ob, o.Config(), gl, gs, o.State(), o.Transitions(), gg, gt, len(got),
				wl, ws, ref.state, ref.transitions, ref.good, ref.total, len(ref.events))
		}
	}
	return ref.events
}

// TestSLOMatchesReference runs seeded streams of good and bad bursts,
// with every kind of gap, through SLO and refSLO on rings with short
// windows of one bucket, a few, and all of them. Every stream must
// breach and recover, so both transitions are compared.
func TestSLOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20160402, 2))
	for i, head := range [][4]byte{
		{15, 0, 255, 0x04}, // 16 buckets, short 1
		{7, 7, 100, 0x94},  // 8 buckets, short all 8
		{31, 3, 200, 0x0c}, // 16 buckets, short 4, latency bound
		{0, 0, 50, 0x50},   // 1 bucket: short = long
		{9, 4, 0, 0x04},    // 10 buckets, short 5, over a 1-cycle window
	} {
		data := append([]byte(nil), head[:]...)
		bad := false
		for range 4000 {
			if rng.IntN(40) == 0 {
				bad = !bad
			}
			// Mostly no gap or a sub-bucket one, so windows fill; now
			// and then a longer or a whole-window gap.
			gap := byte(rng.IntN(64))
			switch r := rng.IntN(100); {
			case r < 40:
			case r < 90:
				gap |= 1 << 6
			case r < 97:
				gap |= 2 << 6
			default:
				gap |= 3 << 6
			}
			v := byte(rng.IntN(128))
			if bad == (rng.IntN(10) != 0) {
				v |= 128
			}
			data = append(data, gap, v)
		}
		cfg, stream := decodeSLOStream(data)
		events := checkSLOAgainstRef(t, cfg, stream)
		if len(events) < 2 || events[0].State != SLOBreached || events[1].State != SLOHealthy {
			t.Fatalf("stream %d: breach events %+v, want a breach and a recovery", i, events)
		}
	}
}

// FuzzSLO checks SLO against refSLO on arbitrary objectives and
// observation streams.
func FuzzSLO(f *testing.F) {
	f.Add([]byte{15, 0, 255, 0x04, 0, 128, 0, 128, 64, 1, 200, 0, 128, 128})
	f.Add([]byte{7, 7, 100, 0x94, 65, 200, 66, 130, 0, 0, 130, 5})
	f.Add([]byte{0, 0, 0, 0xff, 0, 128, 255, 128, 1, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, stream := decodeSLOStream(data)
		checkSLOAgainstRef(t, cfg, stream)
	})
}
