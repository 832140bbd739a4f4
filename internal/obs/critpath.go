package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Critical-path attribution: streaming request-trace assembly over the
// span stream, decomposing each root span's end-to-end latency into
// deterministic blame categories (docs/OBSERVABILITY.md). A CritPath
// is a pure event consumer — install Consume as Options.Sink (or call
// it from a fan-out sink). It schedules no engine events and holds
// bounded state, so it follows the same zero-overhead-when-off
// contract as the tracer itself: no tracer, no events, no work.

// BlameCat is one latency blame category.
type BlameCat uint8

// Blame categories, in report order. Every cycle of a request's
// end-to-end window lands in exactly one category: painting is by
// priority (Shed > NoC > Retry > Queue > Kernel), and whatever no
// instrumented interval covers is app compute by definition.
const (
	BlameApp    BlameCat = iota // uninstrumented compute on the app PE
	BlameQueue                  // DTU queueing: msg flights, credit stalls, recv→handler gaps, xfers
	BlameNoC                    // wire time: packet inject→deliver flights
	BlameKernel                 // kernel syscall handling, kernel→service calls, service handling
	BlameRetry                  // retransmit/backoff gaps inside unreliable flights
	BlameShed                   // overload fast-fail aftermath: first shed verdict → root end
	NumBlame
)

var blameNames = [NumBlame]string{"app", "queue", "noc", "kernel", "retry", "shed"}

func (b BlameCat) String() string {
	if int(b) < len(blameNames) {
		return blameNames[b]
	}
	return fmt.Sprintf("blame%d", uint8(b))
}

// blamePrio maps a category to its painting priority (higher wins when
// intervals overlap). BlameApp is the unpainted remainder.
var blamePrio = [NumBlame]int{0, 2, 4, 1, 3, 5}

// BlameVec is a per-category cycle decomposition. The categories sum
// to the request's end-to-end latency.
type BlameVec [NumBlame]uint64

// Total returns the sum over all categories.
func (v BlameVec) Total() uint64 {
	var s uint64
	for _, c := range v {
		s += c
	}
	return s
}

func (v *BlameVec) add(o BlameVec) {
	for i, c := range o {
		v[i] += c
	}
}

// Request is the completed-request summary the engine keeps per root
// span: identity, outcome, and the blame decomposition.
type Request struct {
	Span  SpanID
	PE    int32    // root PE
	Kind  Kind     // root kind (EvSyscallStart or EvSvcCallStart)
	Op    uint64   // root Arg0 (opcode / endpoint)
	Start sim.Time // root open
	End   sim.Time // root close
	Fail  bool     // root closed with an error, or a shed verdict fired
	Blame BlameVec
}

// Latency returns the end-to-end window length.
func (r Request) Latency() sim.Time { return r.End - r.Start }

// Exemplar is one worst-N request kept with its full event tree, so
// the exact p99/p99.9 path can be exported (m3trace -span).
type Exemplar struct {
	Request
	Events    []Event
	Truncated bool // per-request event cap hit; tree is a prefix
}

// CritPathOptions bounds the engine. Zero values pick the defaults.
type CritPathOptions struct {
	// MaxActive caps concurrently tracked root spans; beyond it the
	// oldest active root is evicted flight-recorder-style (counted,
	// never reported). Default 256.
	MaxActive int
	// MaxEvents caps the per-request event list. Requests that
	// overflow keep a prefix and are flagged truncated. Default 512.
	MaxEvents int
	// MaxRequests caps retained per-request summaries (the quantile
	// population). Later completions still feed totals, histogram and
	// SLOs, but are dropped from the population (counted). Default 1<<16.
	MaxRequests int
	// Exemplars is the worst-N full-tree capture count. Default 8.
	Exemplars int
	// SLO, if set, receives every completed request as an observation
	// (latency, ok) at its completion timestamp.
	SLO *SLOSet
}

func (o CritPathOptions) withDefaults() CritPathOptions {
	if o.MaxActive <= 0 {
		o.MaxActive = 256
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 512
	}
	if o.MaxRequests <= 0 {
		o.MaxRequests = 1 << 16
	}
	if o.Exemplars <= 0 {
		o.Exemplars = 8
	}
	return o
}

// reqState is one in-flight root span being assembled.
type reqState struct {
	root      Event
	events    []Event
	truncated bool
}

// CritPath assembles request trees from the span stream and attributes
// their latency. Engine-local, simulation-context-only state, like the
// Tracer it feeds from.
type CritPath struct {
	opt CritPathOptions

	active    map[SpanID]*reqState
	order     []SpanID
	orderHead int

	summaries []Request
	exemplars []*Exemplar

	total BlameVec
	hist  Histogram

	completed, failed, evicted, truncated, dropped uint64
}

// NewCritPath creates an attribution engine. Install Consume as the
// tracer sink.
func NewCritPath(opt CritPathOptions) *CritPath {
	o := opt.withDefaults()
	return &CritPath{
		opt:    o,
		active: make(map[SpanID]*reqState, o.MaxActive),
		hist:   Histogram{Name: "critpath_e2e"},
	}
}

// isRoot reports whether ev opens a request root: an application-side
// syscall or service call. Kernel-side svccall intervals carry the
// enclosing request's span and are tree nodes, not roots.
func isRoot(ev Event) bool {
	return ev.Layer == LApp && ev.Span != 0 &&
		(ev.Kind == EvSyscallStart || ev.Kind == EvSvcCallStart)
}

// rootEnd maps a root's opening kind to its closing kind.
func rootEnd(k Kind) Kind {
	if k == EvSyscallStart {
		return EvSyscallEnd
	}
	return EvSvcCallEnd
}

// isShedVerdict reports whether k is an overload fast-fail verdict:
// from its first occurrence the request is living in the shed path.
func isShedVerdict(k Kind) bool {
	return k == EvShed || k == EvAdmitRefuse || k == EvDeadlineDrop || k == EvBreaker
}

// Consume ingests one event. It is shaped to serve as Options.Sink.
func (c *CritPath) Consume(ev Event) {
	if c == nil || ev.Span == 0 {
		return
	}
	st, ok := c.active[ev.Span]
	if !ok {
		if !isRoot(ev) {
			return // tail of an evicted or pre-existing span
		}
		c.evictOldest()
		st = &reqState{root: ev, events: make([]Event, 0, 16)}
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

// evictOldest makes room for a new root if the active set is full.
func (c *CritPath) evictOldest() {
	for len(c.active) >= c.opt.MaxActive && c.orderHead < len(c.order) {
		span := c.order[c.orderHead]
		c.orderHead++
		if _, live := c.active[span]; live {
			delete(c.active, span)
			c.evicted++
		}
	}
	// Compact the order slice once the dead prefix dominates.
	if c.orderHead > 0 && c.orderHead*2 >= len(c.order) {
		c.order = append(c.order[:0], c.order[c.orderHead:]...)
		c.orderHead = 0
	}
}

// finish closes a request: attribute, summarize, feed histogram/SLOs,
// and capture an exemplar if it ranks.
func (c *CritPath) finish(span SpanID, st *reqState, end Event) {
	delete(c.active, span)
	req := Request{
		Span: span, PE: st.root.PE, Kind: st.root.Kind, Op: st.root.Arg0,
		Start: st.root.At, End: end.At,
	}
	shedAt, shed := firstShed(st.events)
	req.Fail = end.Arg1 != 0 || shed
	req.Blame = attribute(st.events, req.Start, req.End, shedAt, shed)
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

// exemplarLess orders worst-first: latency descending, SpanID
// ascending as the deterministic tie-break.
func exemplarLess(a, b *Exemplar) bool {
	if a.Latency() != b.Latency() {
		return a.Latency() > b.Latency()
	}
	return a.Span < b.Span
}

func (c *CritPath) offerExemplar(req Request, st *reqState) {
	ex := &Exemplar{Request: req, Truncated: st.truncated}
	if len(c.exemplars) >= c.opt.Exemplars {
		last := c.exemplars[len(c.exemplars)-1]
		if !exemplarLess(ex, last) {
			return
		}
		c.exemplars = c.exemplars[:len(c.exemplars)-1]
	}
	ex.Events = append([]Event(nil), st.events...)
	c.exemplars = append(c.exemplars, ex)
	sort.SliceStable(c.exemplars, func(i, j int) bool {
		return exemplarLess(c.exemplars[i], c.exemplars[j])
	})
}

// firstShed returns the timestamp of the first overload verdict in the
// request, if any.
func firstShed(events []Event) (sim.Time, bool) {
	for _, ev := range events {
		if isShedVerdict(ev.Kind) {
			return ev.At, true
		}
	}
	return 0, false
}

// paintIv is one blame-painted interval.
type paintIv struct {
	start, end sim.Time
	cat        BlameCat
}

// attribute decomposes the window [s,e] of one request. It builds
// category intervals from the request's own events and paints every
// cycle with the highest-priority covering category; the unpainted
// remainder is app compute. The categories sum exactly to e-s.
func attribute(events []Event, s, e sim.Time, shedAt sim.Time, shed bool) BlameVec {
	var paints []paintIv
	add := func(a, b sim.Time, cat BlameCat) {
		// Clip to the root window; degenerate intervals paint nothing.
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

	intervals, _ := Intervals(events)

	// Handler starts: where kernel/service processing of this span
	// begins on some PE. Used to close receiver-side queueing gaps.
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

	// Retransmit instants: any message flight whose window contains one
	// is a lossy flight — its non-wire time is retry/backoff.
	var rexmits []sim.Time
	for _, ev := range events {
		if ev.Kind == EvRetransmit || ev.Kind == EvXmitAbort {
			rexmits = append(rexmits, ev.At)
		}
	}

	// Service handling: EvSvcReq → next reply leaving the same PE.
	// (The service's reply is the EvReplySend with this span on the
	// service PE.) Painted as kernel time like kernel-side intervals.
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

	// Credit stalls: EvCreditStall → EvCreditOK on the same PE.
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
			// Kernel-side processing. (The app-layer svccall root is the
			// whole window and paints nothing; kernel-layer ones do.)
			if iv.Layer != LApp {
				add(iv.Start, iv.End, BlameKernel)
			}
		case EvXferStart:
			add(iv.Start, iv.End, BlameQueue)
		case EvMsgSend, EvReplySend:
			add(iv.Start, iv.End, BlameQueue)
			// Receiver-side queueing: the message landed at iv.End but
			// the handler on the destination PE (Arg1) picked it up
			// later — paint the gap as queueing, not app.
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
			// Lossy flight: everything not covered by wire time inside
			// it is retransmit/backoff.
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

	return paintSweep(paints, s, e)
}

// paintSweep resolves overlapping paints by priority over [s,e] and
// returns the per-category totals, with the remainder as BlameApp.
func paintSweep(paints []paintIv, s, e sim.Time) BlameVec {
	var v BlameVec
	if e <= s {
		return v
	}
	if len(paints) == 0 {
		v[BlameApp] = uint64(e - s)
		return v
	}
	// Elementary segments between sorted unique boundaries: a paint
	// covers a segment iff it covers both endpoints (boundaries include
	// every paint endpoint, so there is no partial overlap).
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

// --- reporting ---

// ReqQuantile is the blame decomposition of the request sitting at one
// latency quantile (nearest-rank over the retained population).
type ReqQuantile struct {
	Q       float64
	Span    SpanID
	Kind    string
	Latency uint64
	Fail    bool
	Blame   BlameVec
}

// Report is the deterministic attribution summary.
type Report struct {
	Completed uint64
	Failed    uint64
	Evicted   uint64 // active roots dropped by the MaxActive bound
	Truncated uint64 // completed requests whose event list hit MaxEvents
	Dropped   uint64 // completions past MaxRequests (not in quantiles)
	Total     BlameVec
	Quantiles []ReqQuantile
	Exemplars []*Exemplar
}

// Hist returns the end-to-end latency histogram over completed
// requests.
func (c *CritPath) Hist() *Histogram { return &c.hist }

// Completed returns the number of finished requests.
func (c *CritPath) Completed() uint64 { return c.completed }

// Requests returns the retained request population sorted by
// (latency, SpanID) ascending — the quantile order.
func (c *CritPath) Requests() []Request {
	out := append([]Request(nil), c.summaries...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Latency() != out[j].Latency() {
			return out[i].Latency() < out[j].Latency()
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// RequestAt returns the request at quantile q (nearest-rank), or false
// if none completed.
func (c *CritPath) RequestAt(q float64) (Request, bool) {
	pop := c.Requests()
	if len(pop) == 0 {
		return Request{}, false
	}
	idx := int(q*float64(len(pop))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(pop) {
		idx = len(pop) - 1
	}
	return pop[idx], true
}

// ReportAt builds the attribution report for the given quantiles.
func (c *CritPath) ReportAt(qs []float64) Report {
	r := Report{
		Completed: c.completed, Failed: c.failed, Evicted: c.evicted,
		Truncated: c.truncated, Dropped: c.dropped, Total: c.total,
		Exemplars: append([]*Exemplar(nil), c.exemplars...),
	}
	for _, q := range qs {
		req, ok := c.RequestAt(q)
		if !ok {
			continue
		}
		r.Quantiles = append(r.Quantiles, ReqQuantile{
			Q: q, Span: req.Span, Kind: req.Kind.String(),
			Latency: uint64(req.Latency()), Fail: req.Fail, Blame: req.Blame,
		})
	}
	return r
}

// WriteFolded writes the aggregate blame decomposition in folded
// flamegraph format (root-kind;category cycles), the same shape
// m3prof's WriteFolded emits, so the two collapse into one flamegraph.
func (c *CritPath) WriteFolded(w io.Writer) error {
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
	//m3vet:allow nodeterminism lines are collected then sorted by path before writing
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
