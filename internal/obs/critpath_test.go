package obs

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// reqEvents builds the canonical fault-free syscall request tree used
// across the attribution tests: client PE 0, kernel PE 2, one request
// span. Timeline: send at 0, wire 0-10, handler pickup gap 10-20,
// kernel 20-50, reply wire 50-60, client unmarshal 60-70.
func reqEvents(span SpanID) []Event {
	return []Event{
		{At: 0, PE: 0, Layer: LApp, Kind: EvSyscallStart, Span: span, Arg0: 7},
		{At: 0, PE: 0, Layer: LDTU, Kind: EvMsgSend, Span: span, Arg0: 1, Arg1: 2},
		{At: 0, PE: 0, Layer: LNoC, Kind: EvPktInject, Span: span, Arg0: 2},
		{At: 10, PE: 2, Layer: LNoC, Kind: EvPktDeliver, Span: span, Arg0: 0},
		{At: 10, PE: 2, Layer: LDTU, Kind: EvMsgRecv, Span: span, Arg0: 3},
		{At: 20, PE: 2, Layer: LKernel, Kind: EvKSyscallStart, Span: span, Arg0: 7},
		{At: 50, PE: 2, Layer: LKernel, Kind: EvKSyscallEnd, Span: span},
		{At: 50, PE: 2, Layer: LDTU, Kind: EvReplySend, Span: span, Arg0: 3, Arg1: 0},
		{At: 50, PE: 2, Layer: LNoC, Kind: EvPktInject, Span: span, Arg0: 0},
		{At: 60, PE: 0, Layer: LNoC, Kind: EvPktDeliver, Span: span, Arg0: 2},
		{At: 60, PE: 0, Layer: LDTU, Kind: EvMsgRecv, Span: span, Arg0: 1},
		{At: 70, PE: 0, Layer: LApp, Kind: EvSyscallEnd, Span: span, Arg0: 7},
	}
}

func feedCP(c *CritPath, events []Event) {
	for _, ev := range events {
		c.Consume(ev)
	}
}

func TestCritPathBlameDecomposition(t *testing.T) {
	c := NewCritPath(CritPathOptions{})
	feedCP(c, reqEvents(1))

	if c.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", c.Completed())
	}
	req := c.Requests()[0]
	if req.Span != 1 || req.Kind != EvSyscallStart || req.Op != 7 {
		t.Fatalf("request identity = %+v", req)
	}
	if req.Fail {
		t.Fatalf("fault-free request marked failed")
	}
	want := BlameVec{}
	want[BlameNoC] = 20    // both wire flights, 0-10 and 50-60
	want[BlameQueue] = 10  // recv→handler pickup gap, 10-20
	want[BlameKernel] = 30 // kernel handling, 20-50
	want[BlameApp] = 10    // client unmarshal, 60-70
	if req.Blame != want {
		t.Fatalf("blame = %v, want %v", req.Blame, want)
	}
	if got := req.Blame.Total(); got != uint64(req.Latency()) {
		t.Fatalf("blame total %d != latency %d", got, req.Latency())
	}
}

func TestCritPathShedPainting(t *testing.T) {
	span := SpanID(4)
	events := []Event{
		{At: 0, PE: 0, Layer: LApp, Kind: EvSvcCallStart, Span: span, Arg0: 9},
		{At: 0, PE: 0, Layer: LDTU, Kind: EvMsgSend, Span: span, Arg0: 1, Arg1: 2},
		{At: 30, PE: 2, Layer: LKernel, Kind: EvShed, Span: span},
		{At: 70, PE: 0, Layer: LApp, Kind: EvSvcCallEnd, Span: span, Arg0: 9},
	}
	c := NewCritPath(CritPathOptions{})
	feedCP(c, events)
	req := c.Requests()[0]
	if !req.Fail {
		t.Fatalf("shed request not marked failed")
	}
	if got := req.Blame[BlameShed]; got != 40 {
		t.Fatalf("shed blame = %d, want 40 (verdict at 30 → end at 70)", got)
	}
	if got := req.Blame.Total(); got != 70 {
		t.Fatalf("blame total = %d, want 70", got)
	}
}

func TestCritPathRetryPainting(t *testing.T) {
	span := SpanID(6)
	// A lossy flight: first packet dropped, retransmit at 40 after
	// backoff, delivery at 50. Wire time inside the flight is 0-10 and
	// 40-50; the rest of the flight window is retry/backoff.
	events := []Event{
		{At: 0, PE: 0, Layer: LApp, Kind: EvSyscallStart, Span: span, Arg0: 7},
		{At: 0, PE: 0, Layer: LDTU, Kind: EvMsgSend, Span: span, Arg0: 1, Arg1: 2},
		{At: 0, PE: 0, Layer: LNoC, Kind: EvPktInject, Span: span},
		{At: 10, PE: 1, Layer: LNoC, Kind: EvPktDrop, Span: span},
		{At: 40, PE: 0, Layer: LDTU, Kind: EvRetransmit, Span: span, Arg2: 1},
		{At: 40, PE: 0, Layer: LNoC, Kind: EvPktInject, Span: span},
		{At: 50, PE: 2, Layer: LNoC, Kind: EvPktDeliver, Span: span},
		{At: 50, PE: 2, Layer: LDTU, Kind: EvMsgRecv, Span: span},
		{At: 60, PE: 0, Layer: LApp, Kind: EvSyscallEnd, Span: span},
	}
	c := NewCritPath(CritPathOptions{})
	feedCP(c, events)
	req := c.Requests()[0]
	// Pkt pairing is FIFO per span: the dropped inject at 0 pairs with
	// the delivery at 50, so wire covers 0-50 minus nothing visible —
	// the second inject stays unpaired. Retry still claims nothing
	// under the wire interval; what matters is the flight is not
	// blamed on app.
	if req.Blame[BlameApp] != 10 {
		t.Fatalf("app blame = %d, want 10 (only 50-60)", req.Blame[BlameApp])
	}
	if req.Blame[BlameRetry]+req.Blame[BlameNoC]+req.Blame[BlameQueue] != 50 {
		t.Fatalf("flight window not fully attributed: %v", req.Blame)
	}
}

func TestCritPathCreditStallBlame(t *testing.T) {
	span := SpanID(8)
	events := []Event{
		{At: 0, PE: 0, Layer: LApp, Kind: EvSvcCallStart, Span: span, Arg0: 3},
		{At: 5, PE: 0, Layer: LDTU, Kind: EvCreditStall, Span: span, Arg0: 1},
		{At: 45, PE: 0, Layer: LDTU, Kind: EvCreditOK, Span: span, Arg0: 1},
		{At: 60, PE: 0, Layer: LApp, Kind: EvSvcCallEnd, Span: span, Arg0: 3},
	}
	c := NewCritPath(CritPathOptions{})
	feedCP(c, events)
	req := c.Requests()[0]
	if req.Blame[BlameQueue] != 40 {
		t.Fatalf("queue blame = %d, want 40 (credit stall 5-45)", req.Blame[BlameQueue])
	}
	if req.Blame[BlameApp] != 20 {
		t.Fatalf("app blame = %d, want 20", req.Blame[BlameApp])
	}
}

func TestCritPathEviction(t *testing.T) {
	c := NewCritPath(CritPathOptions{MaxActive: 2})
	for span := SpanID(1); span <= 3; span++ {
		c.Consume(Event{At: sim.Time(span), PE: 0, Layer: LApp, Kind: EvSyscallStart, Span: span})
	}
	if len(c.active) != 2 {
		t.Fatalf("active = %d, want 2", len(c.active))
	}
	// Closing the evicted root is a no-op, not a resurrection.
	c.Consume(Event{At: 100, PE: 0, Layer: LApp, Kind: EvSyscallEnd, Span: 1})
	if c.Completed() != 0 {
		t.Fatalf("evicted span completed")
	}
	rep := c.ReportAt(nil)
	if rep.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", rep.Evicted)
	}
}

func TestCritPathExemplarTieBreak(t *testing.T) {
	c := NewCritPath(CritPathOptions{Exemplars: 2})
	complete := func(span SpanID, lat uint64) {
		c.Consume(Event{At: 0, PE: 0, Layer: LApp, Kind: EvSyscallStart, Span: span})
		c.Consume(Event{At: sim.Time(lat), PE: 0, Layer: LApp, Kind: EvSyscallEnd, Span: span})
	}
	complete(5, 100)
	complete(2, 100)
	complete(9, 50)
	rep := c.ReportAt(nil)
	if len(rep.Exemplars) != 2 {
		t.Fatalf("exemplars = %d, want 2", len(rep.Exemplars))
	}
	if rep.Exemplars[0].Span != 2 || rep.Exemplars[1].Span != 5 {
		t.Fatalf("exemplar order = [%d %d], want [2 5] (latency desc, span asc)",
			rep.Exemplars[0].Span, rep.Exemplars[1].Span)
	}
}

func TestCritPathDeterministicReport(t *testing.T) {
	build := func() (*CritPath, []byte) {
		c := NewCritPath(CritPathOptions{Exemplars: 4})
		for span := SpanID(1); span <= 20; span++ {
			feedCP(c, reqEvents(span))
		}
		var buf bytes.Buffer
		if err := c.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		return c, buf.Bytes()
	}
	c1, f1 := build()
	c2, f2 := build()
	r1 := c1.ReportAt([]float64{0.5, 0.99, 0.999})
	r2 := c2.ReportAt([]float64{0.5, 0.99, 0.999})
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports differ between identical runs")
	}
	if !bytes.Equal(f1, f2) {
		t.Fatalf("folded outputs differ between identical runs")
	}
	if len(f1) == 0 {
		t.Fatalf("folded output empty")
	}
}

func TestCritPathQuantileSelection(t *testing.T) {
	c := NewCritPath(CritPathOptions{})
	for i := 1; i <= 100; i++ {
		span := SpanID(i)
		c.Consume(Event{At: 0, PE: 0, Layer: LApp, Kind: EvSyscallStart, Span: span})
		c.Consume(Event{At: sim.Time(i), PE: 0, Layer: LApp, Kind: EvSyscallEnd, Span: span})
	}
	r := c.ReportAt([]float64{0.5, 0.99, 1.0})
	if len(r.Quantiles) != 3 {
		t.Fatalf("report has %d quantiles, want 3", len(r.Quantiles))
	}
	for i, want := range []uint64{50, 99, 100} {
		if got := r.Quantiles[i]; got.Latency != want || got.Span != SpanID(want) {
			t.Fatalf("p%v = span %d latency %d, want %d", got.Q*100, got.Span, got.Latency, want)
		}
	}
	if r := NewCritPath(CritPathOptions{}).ReportAt([]float64{0.5}); r.Quantiles != nil {
		t.Fatalf("empty population reports quantiles %+v", r.Quantiles)
	}
}

func TestCritPathNilAndForeignEvents(t *testing.T) {
	var c *CritPath
	c.Consume(Event{Kind: EvSyscallStart, Span: 1}) // must not panic
	real := NewCritPath(CritPathOptions{})
	real.Consume(Event{Kind: EvMsgSend, Span: 99}) // tail of unknown span
	real.Consume(Event{Kind: EvSyscallStart})      // span 0
	if len(real.active) != 0 || real.Completed() != 0 {
		t.Fatalf("untracked events created state")
	}
}

// TestCritPathOrderBounded: finished roots must not pile up in the
// eviction order when the active set never fills.
func TestCritPathOrderBounded(t *testing.T) {
	const maxActive = 8
	c := NewCritPath(CritPathOptions{MaxActive: maxActive})
	for span := SpanID(1); span <= 10*maxActive; span++ {
		feedCP(c, reqEvents(span))
		if len(c.order) > 2*maxActive {
			t.Fatalf("after span %d: len(order) = %d, want <= %d", span, len(c.order), 2*maxActive)
		}
	}
	if len(c.active) != 0 || c.Completed() != 10*maxActive {
		t.Fatalf("active = %d, completed = %d", len(c.active), c.Completed())
	}
}

// TestCritPathEvictionMatchesReference: on an over-full stream with
// completions interleaved, the bounded order evicts exactly the roots
// the unbounded one did.
func TestCritPathEvictionMatchesReference(t *testing.T) {
	opt := CritPathOptions{MaxActive: 4}
	c, ref := NewCritPath(opt), newRefCritPath(opt)
	feed := func(ev Event) {
		c.Consume(ev)
		ref.Consume(ev)
	}
	at := sim.Time(0)
	for span := SpanID(1); span <= 200; span++ {
		at++
		feed(Event{At: at, PE: int32(span % 3), Layer: LApp, Kind: EvSyscallStart, Span: span})
		// Close a root some way back, skipping every third, so finished
		// and live roots interleave in the order.
		if back := span - SpanID(span%5); back > 0 && back%3 != 0 {
			at++
			feed(Event{At: at, PE: int32(back % 3), Layer: LApp, Kind: EvSyscallEnd, Span: back})
		}
		if len(c.order) > 2*opt.MaxActive {
			t.Fatalf("len(order) = %d, want <= %d", len(c.order), 2*opt.MaxActive)
		}
	}
	if c.evicted == 0 {
		t.Fatalf("stream never evicted; the test does not exercise eviction")
	}
	assertSameAsRef(t, c, ref)
	for span := range ref.active {
		if _, ok := c.active[span]; !ok {
			t.Fatalf("span %d active in reference only", span)
		}
	}
	if len(c.active) != len(ref.active) {
		t.Fatalf("active = %d, reference %d", len(c.active), len(ref.active))
	}
}

// TestCritPathMatchesReference runs long seeded streams through the
// pooled engine and the map-based reference under several bounds, all
// small enough that requests are evicted, truncated and dropped.
func TestCritPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20160402, 1))
	for i, bounds := range [][4]byte{{255, 255, 255, 255}, {3, 40, 30, 2}, {0, 5, 7, 0}, {7, 47, 63, 4}} {
		data := make([]byte, 4+4*20000)
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		copy(data, bounds[:])
		opt, events := decodeCritPathStream(data)
		c, ref := NewCritPath(opt), newRefCritPath(opt)
		for _, ev := range events {
			c.Consume(ev)
			ref.Consume(ev)
		}
		if ref.completed == 0 {
			t.Fatalf("stream %d completed no request; the test exercises nothing", i)
		}
		assertSameAsRef(t, c, ref)
	}
}

// TestCritPathSummaryBlocks: a population over several blocks, the
// last one cut short by MaxRequests, reads back like the reference's
// single slice.
func TestCritPathSummaryBlocks(t *testing.T) {
	opt := CritPathOptions{MaxRequests: 2*summaryBlock + 300}
	c, ref := NewCritPath(opt), newRefCritPath(opt)
	rng := rand.New(rand.NewPCG(20160402, 3))
	for span := SpanID(1); span <= 3*summaryBlock; span++ {
		end := sim.Time(rng.IntN(500))
		for _, ev := range []Event{
			{At: 0, Layer: LApp, Kind: EvSyscallStart, Span: span},
			{At: end, Layer: LApp, Kind: EvSyscallEnd, Span: span},
		} {
			c.Consume(ev)
			ref.Consume(ev)
		}
	}
	if n := len(c.summaries); n != 3 || len(c.summaries[n-1]) != 300 || cap(c.summaries[n-1]) != 300 {
		t.Fatalf("%d blocks, last %d of %d, want 3 blocks, last 300 of 300",
			n, len(c.summaries[n-1]), cap(c.summaries[n-1]))
	}
	assertSameAsRef(t, c, ref)
}

// TestIntervalsEachEventOnce: two identical opens, one of them closed,
// must report one interval and one instant — not the leftover twice.
func TestIntervalsEachEventOnce(t *testing.T) {
	events := []Event{
		{At: 5, PE: 1, Layer: LDTU, Kind: EvXferStart, Span: 3, Arg0: 1},
		{At: 5, PE: 1, Layer: LDTU, Kind: EvXferStart, Span: 3, Arg0: 1},
		{At: 9, PE: 1, Layer: LDTU, Kind: EvXferEnd, Span: 3},
	}
	intervals, instants := Intervals(events)
	if len(intervals) != 1 || len(instants) != 1 {
		t.Fatalf("got %d intervals + %d instants, want 1 + 1", len(intervals), len(instants))
	}
	assertEachEventOnce(t, events, intervals, instants)
}

// assertEachEventOnce checks that every input event is either exactly
// one interval endpoint or exactly one instant.
func assertEachEventOnce(t testing.TB, events []Event, intervals []Interval, instants []Event) {
	t.Helper()
	if got := 2*len(intervals) + len(instants); got != len(events) {
		t.Fatalf("%d events became %d intervals + %d instants (%d endpoints)",
			len(events), len(intervals), len(instants), got)
	}
}

// assertSameAsRef requires every output of c to equal the reference's.
func assertSameAsRef(t testing.TB, c *CritPath, ref *refCritPath) {
	t.Helper()
	if got, want := c.Requests(), ref.Requests(); !reflect.DeepEqual(got, want) {
		t.Fatalf("requests differ:\n got %+v\nwant %+v", got, want)
	}
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1}
	if got, want := c.ReportAt(qs), ref.ReportAt(qs); !reflect.DeepEqual(got, want) {
		t.Fatalf("reports differ:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(c.hist, ref.hist) {
		t.Fatalf("histograms differ")
	}
	var gf, wf bytes.Buffer
	if err := c.WriteFolded(&gf); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteFolded(&wf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gf.Bytes(), wf.Bytes()) {
		t.Fatalf("folded output differs:\n got %s\nwant %s", gf.Bytes(), wf.Bytes())
	}
}

// decodeCritPathStream turns fuzz bytes into engine bounds and an
// event stream. The first four bytes pick small bounds so eviction,
// truncation, dropped completions and exemplar displacement all
// happen; every following four bytes make one event. Roots always get
// a fresh span, as Tracer.NewSpan guarantees; every other event joins
// one of the recent spans, span 0, or a span no root ever opened, on
// one of four PEs, with small time steps so ties are common.
func decodeCritPathStream(data []byte) (CritPathOptions, []Event) {
	var opt CritPathOptions
	if len(data) < 4 {
		return opt, nil
	}
	opt = CritPathOptions{
		MaxActive:   1 + int(data[0]%8),
		MaxEvents:   1 + int(data[1]%48),
		MaxRequests: 1 + int(data[2]%64),
		Exemplars:   1 + int(data[3]%5),
	}
	data = data[4:]
	layers := [...]Layer{LApp, LApp, LKernel, LService, LDTU, LNoC}
	var (
		events []Event
		spans  []SpanID
		rootPE = map[SpanID]int32{}
		next   SpanID
		at     sim.Time
	)
	for ; len(data) >= 4; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		at += sim.Time(b3 & 15)
		ev := Event{At: at, PE: int32(b2 & 3), Layer: layers[(b2>>2)%6],
			Arg0: uint64(b1 >> 4), Arg1: uint64(b3>>4) % 4, Arg2: uint64(b2 >> 5)}
		switch k := b1 % 10; {
		case k == 0:
		case k == 9:
			ev.Span = 1 << 40 // never opened by a root
		case int(k) <= len(spans):
			ev.Span = spans[len(spans)-int(k)]
		}
		switch {
		case b0 < 16: // root open
			next++
			ev.Span, ev.Layer = next, LApp
			ev.Kind = EvSyscallStart
			if b0&1 != 0 {
				ev.Kind = EvSvcCallStart
			}
			spans = append(spans, next)
			rootPE[next] = ev.PE
		case b0 < 48: // root close, mostly on the root's PE
			ev.Layer = LApp
			ev.Kind = EvSyscallEnd
			if b0&1 != 0 {
				ev.Kind = EvSvcCallEnd
			}
			if pe, ok := rootPE[ev.Span]; ok && b0&2 == 0 {
				ev.PE = pe
			}
		default: // any kind, including one past the last
			ev.Kind = Kind(b0 % (uint8(numKinds) + 1))
			if isRoot(ev) {
				ev.Layer = LKernel // only the root-open case above opens roots
			}
		}
		events = append(events, ev)
	}
	return opt, events
}

// encodeCritPathSeed is the inverse of decodeCritPathStream for
// streams of consecutive requests on one span each (Arg0 is dropped),
// so the corpus starts from well-formed request trees.
func encodeCritPathSeed(events []Event) []byte {
	layerIdx := [...]byte{LApp: 0, LKernel: 2, LService: 3, LDTU: 4, LNoC: 5}
	seed := []byte{3, 40, 30, 2}
	var at sim.Time
	for _, ev := range events {
		b0 := 108 + byte(ev.Kind) // 108 is a multiple of numKinds+1
		switch {
		case isRoot(ev):
			b0 = byte(ev.Kind-EvSyscallStart) / 4 // 0 or 1
		case ev.Layer == LApp && (ev.Kind == EvSyscallEnd || ev.Kind == EvSvcCallEnd):
			b0 = 16 + byte(ev.Kind-EvSyscallEnd)/4
		}
		delta := byte(ev.At - at)
		at = ev.At
		seed = append(seed, b0, 1, byte(ev.PE)|layerIdx[ev.Layer]<<2, delta&15|byte(ev.Arg1%4)<<4)
	}
	return seed
}

// FuzzCritPath checks the pooled engine against the map-based reference
// on arbitrary streams: every request, report, exemplar tree, folded
// line, histogram and SLO observation must be identical, the eviction
// order must stay bounded, and interval pairing must match the
// reference and account for every event exactly once.
func FuzzCritPath(f *testing.F) {
	f.Add(encodeCritPathSeed(reqEvents(1)))
	f.Add(encodeCritPathSeed(append(reqEvents(1), reqEvents(2)...)))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 100, 1, 0, 5, 60, 1, 0, 2})
	f.Add(bytes.Repeat([]byte{7, 13, 200, 41, 9, 1, 120, 17}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		opt, events := decodeCritPathStream(data)
		sloA, sloB := NewSLOSet(), NewSLOSet()
		for _, s := range []*SLOSet{sloA, sloB} {
			s.Objective(testSLOTail, SLOConfig{Objective: 0.9, LatencyBound: 40, Window: 256})
		}
		optA, optB := opt, opt
		optA.SLO, optB.SLO = sloA, sloB
		c, ref := NewCritPath(optA), newRefCritPath(optB)
		bound := 2 * c.opt.MaxActive
		for _, ev := range events {
			c.Consume(ev)
			ref.Consume(ev)
			if len(c.order) > bound {
				t.Fatalf("len(order) = %d, want <= %d", len(c.order), bound)
			}
		}
		assertSameAsRef(t, c, ref)
		var sa, sb bytes.Buffer
		if err := sloA.WriteSnapshot(&sa); err != nil {
			t.Fatal(err)
		}
		if err := sloB.WriteSnapshot(&sb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
			t.Fatalf("SLO snapshots differ:\n got %s\nwant %s", sa.Bytes(), sb.Bytes())
		}

		intervals, instants := Intervals(events)
		refIv, refInst := refIntervals(events)
		if !reflect.DeepEqual(intervals, refIv) {
			t.Fatalf("intervals differ from reference")
		}
		assertEachEventOnce(t, events, intervals, instants)
		if !hasDuplicate(events) && !reflect.DeepEqual(instants, refInst) {
			t.Fatalf("instants differ from reference")
		}
	})
}

// hasDuplicate reports whether two events in the list are identical —
// the one case where the reference pairing double-reports an instant.
func hasDuplicate(events []Event) bool {
	seen := make(map[Event]bool, len(events))
	for _, ev := range events {
		if seen[ev] {
			return true
		}
		seen[ev] = true
	}
	return false
}
