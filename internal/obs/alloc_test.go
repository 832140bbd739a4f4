package obs

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestEmitZeroAlloc pins the hot-path allocation contract: emitting an
// event into an armed flight ring allocates nothing once the ring
// exists — events are by-value flyweights, the ring is a fixed array.
// A regression here (a pointer field, an interface conversion, a
// fmt call) multiplies across every simulated message.
func TestEmitZeroAlloc(t *testing.T) {
	tr := New(Options{FlightRecorder: DefaultFlightRecorder})
	ev := Event{At: 1, PE: 3, Layer: LDTU, Kind: EvMsgSend, Span: 7, Arg0: 1, Arg1: 2, Arg2: 3}
	tr.Emit(ev) // warm: first emit on a PE allocates its ring
	if allocs := testing.AllocsPerRun(1000, func() {
		ev.At++
		tr.Emit(ev)
	}); allocs != 0 {
		t.Fatalf("Emit allocates %v objects per call, want 0", allocs)
	}
}

// TestHistObserveZeroAlloc: histogram updates ride the same hot path.
func TestHistObserveZeroAlloc(t *testing.T) {
	tr := New(Options{})
	h := tr.Hist(HMsgLatency)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(42) }); allocs != 0 {
		t.Fatalf("Observe allocates %v objects per call, want 0", allocs)
	}
}

// TestCounterZeroAlloc: cached counter handles must be increment-only.
func TestCounterZeroAlloc(t *testing.T) {
	tr := New(Options{})
	c := tr.Metrics().Counter("alloc_test_total", 0)
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Inc allocates %v objects per call, want 0", allocs)
	}
}

// allocReq is one request of the shape TestConsumeZeroAlloc and
// BenchmarkCritPathConsume feed: reqEvents' syscall round trip
// (message, packet and ksyscall flights, and the reply) with a credit
// stall before the send, shifted to start at cycle at.
func allocReq(span SpanID, at sim.Time) []Event {
	events := reqEvents(span)
	events = slices.Insert(events, 1,
		Event{At: 0, PE: 0, Layer: LDTU, Kind: EvCreditStall, Span: span, Arg0: 1},
		Event{At: 0, PE: 0, Layer: LDTU, Kind: EvCreditOK, Span: span, Arg0: 1})
	for i := range events {
		events[i].At += at
	}
	return events
}

// TestRequestSize bounds the summary the engine keeps per completed
// request: a run's population is most of the engine's memory, so a
// wider blame vector must not grow it.
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 96 {
		t.Fatalf("Request is %d B, want <= 96", n)
	}
}

// TestConsumeZeroAlloc pins the critical-path engine's steady state: a
// warmed-up request that does not rank among the exemplars allocates
// nothing — its state and event buffer come from the pool, pairing and
// painting run in the engine's scratch — apart from one population
// block per summaryBlock requests, and no summary is ever copied to
// make room: 20,000 more requests allocate little more than their
// 20,000 summaries.
func TestConsumeZeroAlloc(t *testing.T) {
	c := NewCritPath(CritPathOptions{})
	const warm, runs, bulk = 64, 1000, 20000
	span := SpanID(0)
	events := allocReq(0, 0)
	feed := func() {
		span++
		for _, ev := range events {
			ev.Span, ev.At = span, ev.At+sim.Time(span)*100
			c.Consume(ev)
		}
	}
	for range warm {
		feed()
	}
	if allocs := testing.AllocsPerRun(runs, feed); allocs != 0 {
		t.Fatalf("Consume allocates %v objects per request, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range bulk {
		feed()
	}
	runtime.ReadMemStats(&after)
	summaries := uint64(bulk * unsafe.Sizeof(Request{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > summaries*11/10 {
		t.Fatalf("%d requests allocate %d B, want <= %d (1.1x their %d B of summaries)",
			bulk, got, summaries*11/10, summaries)
	}
	if want := uint64(warm + runs + 1 + bulk); c.Completed() != want {
		t.Fatalf("completed = %d, want %d", c.Completed(), want)
	}
}

// BenchmarkCritPathConsume is one whole request through the engine:
// its events, then attribution, summary and histogram at the root end.
func BenchmarkCritPathConsume(b *testing.B) {
	c := NewCritPath(CritPathOptions{MaxRequests: 1 << 10})
	events := allocReq(0, 0)
	b.ReportAllocs()
	for i := range b.N {
		span := SpanID(i + 1)
		for _, ev := range events {
			ev.Span, ev.At = span, ev.At+sim.Time(span)*100
			c.Consume(ev)
		}
	}
}

// tail4Requests is how many requests one iteration of perf's tail4
// workload finishes, each on a fresh engine.
const tail4Requests = 24000

// BenchmarkCritPathConsumeTail4 feeds requests the way perf's tail4
// workload does: four requests in flight at once, their events
// interleaved in runs of five (so most events carry the span of the
// one before, as in the workload), the default MaxRequests, two SLOs
// attached, and a fresh engine every tail4Requests requests, so the
// population and the SLO windows cost what they cost there. One op is
// the four requests.
func BenchmarkCritPathConsumeTail4(b *testing.B) {
	const inFlight, run = 4, 5
	var batch []Event
	reqs := make([][]Event, inFlight)
	for k := range reqs {
		reqs[k] = allocReq(SpanID(k), sim.Time(k)*20)
	}
	for from := 0; from < len(reqs[0]); from += run {
		for _, r := range reqs {
			batch = append(batch, r[from:min(from+run, len(r))]...)
		}
	}
	var c *CritPath
	b.ReportAllocs()
	for i := range b.N {
		if i%(tail4Requests/inFlight) == 0 {
			slos := NewSLOSet()
			slos.Objective(testSLOTail, SLOConfig{Objective: 0.99, LatencyBound: 1 << 17, Window: 1 << 20})
			slos.Objective(testSLOAvail, SLOConfig{Objective: 0.999, Window: 1 << 20})
			c = NewCritPath(CritPathOptions{Exemplars: 4, SLO: slos})
		}
		base := SpanID(i * inFlight)
		for _, ev := range batch {
			ev.Span += base + 1
			ev.At += sim.Time(i) * 800 * inFlight
			c.Consume(ev)
		}
	}
}

// BenchmarkSLOObserve is one observation of a default-shaped objective
// (32 buckets, a 4-bucket short window), 800 cycles after the last.
func BenchmarkSLOObserve(b *testing.B) {
	o := NewSLOSet().Objective(testSLOTail, SLOConfig{Objective: 0.99, LatencyBound: 1 << 17, Window: 1 << 20})
	b.ReportAllocs()
	for i := range b.N {
		o.Observe(sim.Time(i)*800, sim.Time(i%256)<<10, i%64 != 0)
	}
}
