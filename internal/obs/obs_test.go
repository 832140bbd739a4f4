package obs

import (
	"strings"
	"testing"
)

func TestEncodedSize(t *testing.T) {
	ev := Event{At: 1, PE: 2, Layer: LDTU, Kind: EvMsgSend, Span: 3, Arg0: 4, Arg1: 5, Arg2: 6}
	b := ev.AppendBinary(nil)
	if len(b) != EncodedSize {
		t.Fatalf("AppendBinary produced %d bytes, want EncodedSize=%d", len(b), EncodedSize)
	}
	// Byte-identical for identical events: the determinism witness
	// depends on it.
	if got := string(ev.AppendBinary(nil)); got != string(b) {
		t.Fatalf("AppendBinary not deterministic")
	}
	if got := string(Event{At: 1, PE: 2, Layer: LDTU, Kind: EvMsgRecv, Span: 3, Arg0: 4, Arg1: 5, Arg2: 6}.AppendBinary(nil)); got == string(b) {
		t.Fatalf("different events encoded identically")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.On() {
		t.Fatalf("nil tracer reports On")
	}
	if tr.FlightRecording() {
		t.Fatalf("nil tracer reports FlightRecording")
	}
	tr.Emit(Event{Kind: EvCrash}) // must not panic
	if d := tr.FlightDump(); !strings.Contains(d, "not armed") {
		t.Fatalf("nil tracer dump = %q, want 'not armed'", d)
	}
}

func TestNewSpanSequential(t *testing.T) {
	tr := New(Options{})
	if a, b := tr.NewSpan(), tr.NewSpan(); a != 1 || b != 2 {
		t.Fatalf("NewSpan sequence = %d, %d, want 1, 2", a, b)
	}
}

func TestFlightRingWraps(t *testing.T) {
	tr := New(Options{FlightRecorder: 4})
	if !tr.FlightRecording() {
		t.Fatalf("armed recorder reports not recording")
	}
	for i := 0; i < 6; i++ {
		tr.Emit(Event{PE: 1, Kind: EvMsgSend, Arg0: uint64(i)})
	}
	tr.Emit(Event{At: 5, PE: 3, Kind: EvCrash})
	r := tr.ring(1)
	evs := r.events()
	if len(evs) != 4 || r.total != 6 {
		t.Fatalf("ring retained %d events (total %d), want 4 (total 6)", len(evs), r.total)
	}
	for i, ev := range evs {
		if ev.Arg0 != uint64(i+2) {
			t.Fatalf("ring[%d].Arg0 = %d, want %d (oldest-first after wrap)", i, ev.Arg0, i+2)
		}
	}
	dump := tr.FlightDump()
	if !strings.Contains(dump, "last 4 events per PE") ||
		!strings.Contains(dump, "pe 1 (6 events total):") ||
		!strings.Contains(dump, "pe 3 (1 events total):") {
		t.Fatalf("unexpected dump:\n%s", dump)
	}
	// PE sections appear in id order.
	if strings.Index(dump, "pe 1 ") > strings.Index(dump, "pe 3 ") {
		t.Fatalf("dump not in PE id order:\n%s", dump)
	}
}

func TestFlightRingIgnoresNegativePE(t *testing.T) {
	tr := New(Options{FlightRecorder: 2})
	tr.Emit(Event{PE: -1, Kind: EvConfig})
	if len(tr.rings) != 0 {
		t.Fatalf("event with PE=-1 allocated a ring")
	}
}
