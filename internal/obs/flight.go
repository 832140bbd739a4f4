package obs

import (
	"fmt"
	"io"
	"strings"
)

// flightRing is one PE's bounded event ring: the last flightCap events
// that PE produced, in arrival order.
type flightRing struct {
	buf   []Event
	next  int
	total uint64
}

func (r *flightRing) push(ev Event) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// events returns the retained events oldest-first.
func (r *flightRing) events() []Event {
	if r.total < uint64(len(r.buf)) {
		return r.buf[:r.next]
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// ring returns (growing the table as needed) the flight ring of pe.
// PE ids are small dense integers, so a slice keeps the dump walk in
// fixed id order without sorting.
func (t *Tracer) ring(pe int) *flightRing {
	for len(t.rings) <= pe {
		t.rings = append(t.rings, nil)
	}
	if t.rings[pe] == nil {
		t.rings[pe] = &flightRing{buf: make([]Event, t.flightCap)}
	}
	return t.rings[pe]
}

// FlightRecording reports whether a flight recorder is armed.
func (t *Tracer) FlightRecording() bool { return t != nil && t.flightCap > 0 }

// WriteFlightDump renders every PE's retained events, oldest-first, in
// PE id order: the post-mortem the chaos harness and the deadlock
// check attach to a failure.
func (t *Tracer) WriteFlightDump(w io.Writer) error {
	if t == nil || t.flightCap == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: not armed")
		return err
	}
	if _, err := fmt.Fprintf(w, "flight recorder: last %d events per PE\n", t.flightCap); err != nil {
		return err
	}
	for pe, r := range t.rings {
		if r == nil || r.total == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "pe %d (%d events total):\n", pe, r.total); err != nil {
			return err
		}
		for _, ev := range r.events() {
			if _, err := fmt.Fprintf(w, "  %s\n", ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlightDump renders WriteFlightDump into a string.
func (t *Tracer) FlightDump() string {
	var sb strings.Builder
	_ = t.WriteFlightDump(&sb)
	return sb.String()
}
