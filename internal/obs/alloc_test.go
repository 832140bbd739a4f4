package obs

import (
	"slices"
	"testing"

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

// TestConsumeZeroAlloc pins the critical-path engine's steady state: a
// warmed-up request that does not rank among the exemplars allocates
// nothing — its state and event buffer come from the pool, pairing and
// painting run in the engine's scratch. The population slice grows by
// doubling up to MaxRequests like any append; the test leaves it room
// so the count measures the per-request path alone.
func TestConsumeZeroAlloc(t *testing.T) {
	c := NewCritPath(CritPathOptions{})
	const warm, runs = 64, 1000
	span := SpanID(0)
	feed := func() {
		span++
		for _, ev := range allocReq(span, sim.Time(span)*100) {
			c.Consume(ev)
		}
	}
	for range warm {
		feed()
	}
	c.summaries = slices.Grow(c.summaries, runs+1)
	events := allocReq(0, 0)
	if allocs := testing.AllocsPerRun(runs, func() {
		span++
		for _, ev := range events {
			ev.Span, ev.At = span, ev.At+sim.Time(span)*100
			c.Consume(ev)
		}
	}); allocs != 0 {
		t.Fatalf("Consume allocates %v objects per request, want 0", allocs)
	}
	if c.Completed() != warm+runs+1 {
		t.Fatalf("completed = %d, want %d", c.Completed(), warm+runs+1)
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
