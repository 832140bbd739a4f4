package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Span reconstruction and Chrome-trace ("Perfetto") export. The event
// stream pairs into intervals by one rule, which critpath's attribution
// uses too (pairer): a same-PE end (syscall, ksyscall, svccall, xfer)
// closes the most recent open start of its kind on the same (PE, span),
// LIFO; a cross-PE arrival (EvMsgRecv closes EvMsgSend or EvReplySend,
// EvPktDeliver closes EvPktInject) closes the oldest unmatched send of
// its class on the same span, FIFO. Span-0 flights never pair.
// Everything else is an instant.

// Interval is one reconstructed span segment.
type Interval struct {
	Span  SpanID
	Kind  Kind // the interval's opening kind
	Layer Layer
	PE    int32 // PE of the opening event
	Start sim.Time
	End   sim.Time
	Arg0  uint64
	Arg1  uint64
}

// openKey maps an opening kind to the key a close matches it on: the
// kind itself for a same-PE start, the flight class for a send
// (EvMsgSend for both message kinds, EvPktInject for packets).
// closeKey maps a closing kind to the key of the open it closes.
var openKey = [numKinds]Kind{
	EvSyscallStart: EvSyscallStart, EvKSyscallStart: EvKSyscallStart,
	EvSvcCallStart: EvSvcCallStart, EvXferStart: EvXferStart,
	EvMsgSend: EvMsgSend, EvReplySend: EvMsgSend, EvPktInject: EvPktInject,
}

var closeKey = [numKinds]Kind{
	EvSyscallEnd: EvSyscallStart, EvKSyscallEnd: EvKSyscallStart,
	EvSvcCallEnd: EvSvcCallStart, EvXferEnd: EvXferStart,
	EvMsgRecv: EvMsgSend, EvPktDeliver: EvPktInject,
}

// pairKey returns ev's pairing key from table, or EvNone if ev takes
// no part in pairing under it.
func pairKey(table *[numKinds]Kind, ev Event) Kind {
	if ev.Kind >= numKinds {
		return EvNone
	}
	k := table[ev.Kind]
	if ev.Span == 0 && isFlightKey(k) {
		return EvNone
	}
	return k
}

// isFlightKey reports whether k keys a cross-PE (FIFO) flight.
func isFlightKey(k Kind) bool { return k == EvMsgSend || k == EvPktInject }

// openEv is one not-yet-closed open, with its match key copied out of
// the event so scans stay in one small array.
type openEv struct {
	span SpanID
	pe   int32
	key  Kind
	idx  int
}

// evPair is one matched interval: the indices of its open and close.
type evPair struct{ open, close int }

// pairer pairs an event list by index. Its slices are scratch reused
// across calls, so pairing a request allocates nothing once they have
// grown to the request's size. Opens wait in one list in emission
// order; a request has tens of events, so a linear scan beats keyed
// maps. Over a whole-run stream each close scans the opens still
// pending, which stay few unless many sends are never delivered.
type pairer struct {
	open     []openEv
	pairs    []evPair // in closing order
	instants []int    // in emission order, then unclosed opens
}

// pair matches events. Every index lands in exactly one pair or in
// instants.
func (p *pairer) pair(events []Event) {
	p.open, p.pairs, p.instants = p.open[:0], p.pairs[:0], p.instants[:0]
	for i, ev := range events {
		if key := pairKey(&openKey, ev); key != EvNone {
			p.open = append(p.open, openEv{ev.Span, ev.PE, key, i})
			continue
		}
		j := -1
		if key := pairKey(&closeKey, ev); isFlightKey(key) {
			j = p.oldest(ev.Span, key)
		} else if key != EvNone {
			j = p.latest(ev.PE, ev.Span, key)
		}
		if j < 0 {
			p.instants = append(p.instants, i)
			continue
		}
		p.pairs = append(p.pairs, evPair{p.open[j].idx, i})
		p.open = slices.Delete(p.open, j, j+1)
	}
	for _, o := range p.open {
		p.instants = append(p.instants, o.idx)
	}
}

// latest finds the most recent open of key on (pe, span): LIFO.
func (p *pairer) latest(pe int32, span SpanID, key Kind) int {
	for j := len(p.open) - 1; j >= 0; j-- {
		if o := p.open[j]; o.key == key && o.span == span && o.pe == pe {
			return j
		}
	}
	return -1
}

// oldest finds the oldest unmatched send of class key on span: FIFO.
func (p *pairer) oldest(span SpanID, key Kind) int {
	for j, o := range p.open {
		if o.key == key && o.span == span {
			return j
		}
	}
	return -1
}

// Intervals pairs the event stream (in emission order) into intervals
// and leftover instants. Events that open an interval but never close
// (and vice versa) are returned as instants, so nothing is silently
// dropped and every event lands exactly once. The result order is
// deterministic: intervals in closing order, instants in emission
// order, then unclosed opens in emission order.
func Intervals(events []Event) (intervals []Interval, instants []Event) {
	var p pairer
	p.pair(events)
	for _, pr := range p.pairs {
		open := events[pr.open]
		intervals = append(intervals, Interval{
			Span: open.Span, Kind: open.Kind, Layer: open.Layer, PE: open.PE,
			Start: open.At, End: events[pr.close].At, Arg0: open.Arg0, Arg1: open.Arg1,
		})
	}
	for _, i := range p.instants {
		instants = append(instants, events[i])
	}
	return intervals, instants
}

// pfEvent is one Chrome-trace record. Field order is fixed by the
// struct, map args are marshalled in sorted key order: the JSON bytes
// are deterministic.
type pfEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Ph    string            `json:"ph"`
	Ts    uint64            `json:"ts"`
	Dur   *uint64           `json:"dur,omitempty"`
	Pid   int32             `json:"pid"`
	Tid   uint8             `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

type pfTrace struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

// WritePerfetto exports the event stream as Chrome-trace JSON
// (chrome://tracing, Perfetto's legacy JSON importer): intervals
// become complete ("X") slices, leftovers instant ("i") marks.
// pid = PE, tid = layer, ts/dur = simulated cycles (the nominal unit
// is microseconds; the values are cycles — zoom, don't convert).
func WritePerfetto(w io.Writer, events []Event) error {
	intervals, instants := Intervals(events)
	out := make([]pfEvent, 0, len(intervals)+len(instants))
	for _, iv := range intervals {
		dur := uint64(iv.End - iv.Start)
		out = append(out, pfEvent{
			Name: iv.Kind.String(), Cat: iv.Layer.String(), Ph: "X",
			Ts: uint64(iv.Start), Dur: &dur, Pid: iv.PE, Tid: uint8(iv.Layer),
			Args: map[string]uint64{"span": uint64(iv.Span), "arg0": iv.Arg0, "arg1": iv.Arg1},
		})
	}
	for _, ev := range instants {
		out = append(out, pfEvent{
			Name: ev.Kind.String(), Cat: ev.Layer.String(), Ph: "i",
			Ts: uint64(ev.At), Pid: ev.PE, Tid: uint8(ev.Layer), Scope: "t",
			Args: map[string]uint64{"span": uint64(ev.Span), "arg0": ev.Arg0, "arg1": ev.Arg1},
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(pfTrace{TraceEvents: out, DisplayTimeUnit: "ns"})
}
