package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// The map-based critical-path engine the pooled one replaced, kept as
// the test-only reference: FuzzCritPath and the equivalence tests
// require every Request, report, exemplar and folded line of CritPath
// to equal what this straightforward version computes. It allocates
// freely and pairs intervals through maps, which is exactly why it is
// easy to trust.

type refReqState struct {
	root      Event
	events    []Event
	truncated bool
}

type refCritPath struct {
	opt CritPathOptions

	active    map[SpanID]*refReqState
	order     []SpanID
	orderHead int

	summaries []Request
	exemplars []*Exemplar

	total BlameVec
	hist  Histogram

	completed, failed, evicted, truncated, dropped uint64
}

func newRefCritPath(opt CritPathOptions) *refCritPath {
	o := opt.withDefaults()
	return &refCritPath{
		opt:    o,
		active: make(map[SpanID]*refReqState, o.MaxActive),
		hist:   Histogram{Name: "critpath_e2e"},
	}
}

func (c *refCritPath) Consume(ev Event) {
	if ev.Span == 0 {
		return
	}
	st, ok := c.active[ev.Span]
	if !ok {
		if !isRoot(ev) {
			return
		}
		c.evictOldest()
		st = &refReqState{root: ev, events: make([]Event, 0, 16)}
		c.active[ev.Span] = st
		c.order = append(c.order, ev.Span)
	}
	if len(st.events) < c.opt.MaxEvents {
		st.events = append(st.events, ev)
	} else {
		st.truncated = true
	}
	if ev.Kind == rootEnd(st.root.Kind) && ev.Layer == LApp && ev.PE == st.root.PE {
		c.finish(ev.Span, st, ev)
	}
}

func (c *refCritPath) evictOldest() {
	for len(c.active) >= c.opt.MaxActive && c.orderHead < len(c.order) {
		span := c.order[c.orderHead]
		c.orderHead++
		if _, live := c.active[span]; live {
			delete(c.active, span)
			c.evicted++
		}
	}
	if c.orderHead > 0 && c.orderHead*2 >= len(c.order) {
		c.order = append(c.order[:0], c.order[c.orderHead:]...)
		c.orderHead = 0
	}
}

func (c *refCritPath) finish(span SpanID, st *refReqState, end Event) {
	delete(c.active, span)
	req := Request{
		Span: span, PE: st.root.PE, Kind: st.root.Kind, Op: st.root.Arg0,
		Start: st.root.At, End: end.At,
	}
	shedAt, shed := firstShed(st.events)
	req.Fail = end.Arg1 != 0 || shed
	req.Blame = refAttribute(st.events, req.Start, req.End, shedAt, shed)
	if st.truncated {
		c.truncated++
	}
	c.completed++
	if req.Fail {
		c.failed++
	}
	c.total.add(req.Blame)
	c.hist.Observe(uint64(req.Latency()))
	if c.opt.SLO != nil {
		c.opt.SLO.ObserveAll(req.End, req.Latency(), !req.Fail)
	}
	if len(c.summaries) < c.opt.MaxRequests {
		c.summaries = append(c.summaries, req)
	} else {
		c.dropped++
	}
	c.offerExemplar(req, st)
}

func refExemplarLess(a, b *Exemplar) bool {
	if a.Latency() != b.Latency() {
		return a.Latency() > b.Latency()
	}
	return a.Span < b.Span
}

func (c *refCritPath) offerExemplar(req Request, st *refReqState) {
	ex := &Exemplar{Request: req, Truncated: st.truncated}
	if len(c.exemplars) >= c.opt.Exemplars {
		last := c.exemplars[len(c.exemplars)-1]
		if !refExemplarLess(ex, last) {
			return
		}
		c.exemplars = c.exemplars[:len(c.exemplars)-1]
	}
	ex.Events = append([]Event(nil), st.events...)
	c.exemplars = append(c.exemplars, ex)
	sort.SliceStable(c.exemplars, func(i, j int) bool {
		return refExemplarLess(c.exemplars[i], c.exemplars[j])
	})
}

func (c *refCritPath) Requests() []Request {
	out := append([]Request(nil), c.summaries...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Latency() != out[j].Latency() {
			return out[i].Latency() < out[j].Latency()
		}
		return out[i].Span < out[j].Span
	})
	return out
}

func (c *refCritPath) ReportAt(qs []float64) Report {
	r := Report{
		Completed: c.completed, Failed: c.failed, Evicted: c.evicted,
		Truncated: c.truncated, Dropped: c.dropped, Total: c.total,
		Exemplars: append([]*Exemplar(nil), c.exemplars...),
	}
	pop := c.Requests()
	for _, q := range qs {
		if len(pop) == 0 {
			break
		}
		idx := int(q*float64(len(pop))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(pop) {
			idx = len(pop) - 1
		}
		req := pop[idx]
		r.Quantiles = append(r.Quantiles, ReqQuantile{
			Q: q, Span: req.Span, Kind: req.Kind.String(),
			Latency: uint64(req.Latency()), Fail: req.Fail, Blame: req.Blame,
		})
	}
	return r
}

func (c *refCritPath) WriteFolded(w io.Writer) error {
	type line struct {
		path   string
		cycles uint64
	}
	agg := map[string]uint64{}
	for _, req := range c.summaries {
		for cat, cyc := range req.Blame {
			if cyc == 0 {
				continue
			}
			agg[req.Kind.String()+";"+BlameCat(cat).String()] += cyc
		}
	}
	lines := make([]line, 0, len(agg))
	for p, cyc := range agg {
		lines = append(lines, line{p, cyc})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].path < lines[j].path })
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %d\n", l.path, l.cycles); err != nil {
			return err
		}
	}
	return nil
}

func refAttribute(events []Event, s, e sim.Time, shedAt sim.Time, shed bool) BlameVec {
	var paints []paintIv
	add := func(a, b sim.Time, cat BlameCat) {
		if a < s {
			a = s
		}
		if b > e {
			b = e
		}
		if b > a {
			paints = append(paints, paintIv{a, b, cat})
		}
	}

	intervals, _ := refIntervals(events)

	type handlerStart struct {
		pe int32
		at sim.Time
	}
	var handlers []handlerStart
	for _, ev := range events {
		if ev.Kind == EvKSyscallStart || ev.Kind == EvSvcReq {
			handlers = append(handlers, handlerStart{ev.PE, ev.At})
		}
	}

	var rexmits []sim.Time
	for _, ev := range events {
		if ev.Kind == EvRetransmit || ev.Kind == EvXmitAbort {
			rexmits = append(rexmits, ev.At)
		}
	}

	pendingSvc := map[int32]sim.Time{}
	for _, ev := range events {
		switch ev.Kind {
		case EvSvcReq:
			if _, busy := pendingSvc[ev.PE]; !busy {
				pendingSvc[ev.PE] = ev.At
			}
		case EvReplySend:
			if at, busy := pendingSvc[ev.PE]; busy {
				add(at, ev.At, BlameKernel)
				delete(pendingSvc, ev.PE)
			}
		}
	}

	pendingStall := map[int32]sim.Time{}
	for _, ev := range events {
		switch ev.Kind {
		case EvCreditStall:
			if _, busy := pendingStall[ev.PE]; !busy {
				pendingStall[ev.PE] = ev.At
			}
		case EvCreditOK:
			if at, busy := pendingStall[ev.PE]; busy {
				add(at, ev.At, BlameQueue)
				delete(pendingStall, ev.PE)
			}
		}
	}

	for _, iv := range intervals {
		switch iv.Kind {
		case EvKSyscallStart, EvSvcCallStart:
			if iv.Layer != LApp {
				add(iv.Start, iv.End, BlameKernel)
			}
		case EvXferStart:
			add(iv.Start, iv.End, BlameQueue)
		case EvMsgSend, EvReplySend:
			add(iv.Start, iv.End, BlameQueue)
			dst := int32(iv.Arg1)
			var gapEnd sim.Time
			for _, h := range handlers {
				if h.pe == dst && h.at >= iv.End && (gapEnd == 0 || h.at < gapEnd) {
					gapEnd = h.at
				}
			}
			if gapEnd > iv.End {
				add(iv.End, gapEnd, BlameQueue)
			}
			for _, t := range rexmits {
				if t >= iv.Start && t <= iv.End {
					add(iv.Start, iv.End, BlameRetry)
					break
				}
			}
		case EvPktInject:
			add(iv.Start, iv.End, BlameNoC)
		}
	}

	if shed {
		add(shedAt, e, BlameShed)
	}

	return refPaintSweep(paints, s, e)
}

// paintIv is one blame-painted interval.
type paintIv struct {
	start, end sim.Time
	cat        BlameCat
}

func refPaintSweep(paints []paintIv, s, e sim.Time) BlameVec {
	var v BlameVec
	if e <= s {
		return v
	}
	if len(paints) == 0 {
		v[BlameApp] = uint64(e - s)
		return v
	}
	bounds := make([]sim.Time, 0, 2*len(paints)+2)
	bounds = append(bounds, s, e)
	for _, p := range paints {
		bounds = append(bounds, p.start, p.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	for i := 0; i+1 < len(uniq); i++ {
		t0, t1 := uniq[i], uniq[i+1]
		best, bestPrio := BlameApp, -1
		for _, p := range paints {
			if p.start <= t0 && p.end >= t1 && blamePrio[p.cat] > bestPrio {
				best, bestPrio = p.cat, blamePrio[p.cat]
			}
		}
		v[best] += uint64(t1 - t0)
	}
	return v
}

var refEndOf = map[Kind]Kind{
	EvSyscallEnd:  EvSyscallStart,
	EvKSyscallEnd: EvKSyscallStart,
	EvSvcCallEnd:  EvSvcCallStart,
	EvXferEnd:     EvXferStart,
}

func refIsFlightSend(k Kind) bool {
	return k == EvMsgSend || k == EvReplySend || k == EvPktInject
}

func refFlightClass(k Kind) int {
	switch k {
	case EvMsgSend, EvReplySend, EvMsgRecv:
		return 0
	case EvPktInject, EvPktDeliver:
		return 1
	}
	return -1
}

type refStackKey struct {
	pe   int32
	span SpanID
	kind Kind
}

type refFlightKey struct {
	span  SpanID
	class int
}

// refIntervals is the map-based pairing, including its known flaw: an
// unclosed open is matched back by value, so an identical event that
// did pair reports it a second time.
func refIntervals(events []Event) (intervals []Interval, instants []Event) {
	stacks := make(map[refStackKey][]Event)
	flights := make(map[refFlightKey][]Event)
	for _, ev := range events {
		switch {
		case refEndOf[ev.Kind] != EvNone && ev.Kind != EvNone:
			key := refStackKey{ev.PE, ev.Span, refEndOf[ev.Kind]}
			st := stacks[key]
			if len(st) == 0 {
				instants = append(instants, ev)
				continue
			}
			open := st[len(st)-1]
			stacks[key] = st[:len(st)-1]
			intervals = append(intervals, Interval{
				Span: open.Span, Kind: open.Kind, Layer: open.Layer, PE: open.PE,
				Start: open.At, End: ev.At, Arg0: open.Arg0, Arg1: open.Arg1,
			})
		case ev.Kind == EvSyscallStart || ev.Kind == EvKSyscallStart ||
			ev.Kind == EvSvcCallStart || ev.Kind == EvXferStart:
			key := refStackKey{ev.PE, ev.Span, ev.Kind}
			stacks[key] = append(stacks[key], ev)
		case refIsFlightSend(ev.Kind) && ev.Span != 0:
			key := refFlightKey{ev.Span, refFlightClass(ev.Kind)}
			flights[key] = append(flights[key], ev)
		case (ev.Kind == EvMsgRecv || ev.Kind == EvPktDeliver) && ev.Span != 0:
			key := refFlightKey{ev.Span, refFlightClass(ev.Kind)}
			q := flights[key]
			if len(q) == 0 {
				instants = append(instants, ev)
				continue
			}
			open := q[0]
			flights[key] = q[1:]
			intervals = append(intervals, Interval{
				Span: open.Span, Kind: open.Kind, Layer: open.Layer, PE: open.PE,
				Start: open.At, End: ev.At, Arg0: open.Arg0, Arg1: open.Arg1,
			})
		default:
			instants = append(instants, ev)
		}
	}
	for _, ev := range events {
		switch {
		case ev.Kind == EvSyscallStart || ev.Kind == EvKSyscallStart ||
			ev.Kind == EvSvcCallStart || ev.Kind == EvXferStart:
			if refContains(stacks[refStackKey{ev.PE, ev.Span, ev.Kind}], ev) {
				instants = append(instants, ev)
			}
		case refIsFlightSend(ev.Kind) && ev.Span != 0:
			if refContains(flights[refFlightKey{ev.Span, refFlightClass(ev.Kind)}], ev) {
				instants = append(instants, ev)
			}
		}
	}
	return intervals, instants
}

func refContains(evs []Event, ev Event) bool {
	for _, e := range evs {
		if e == ev {
			return true
		}
	}
	return false
}
