package obs

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Critical-path attribution: streaming request-trace assembly over the
// span stream, decomposing each root span's end-to-end latency into
// deterministic paints, a layer working or waited on
// (docs/OBSERVABILITY.md). A CritPath
// is a pure event consumer — install Consume as Options.Sink (or call
// it from a fan-out sink). It schedules no engine events and holds
// bounded state, so it follows the same zero-overhead-when-off
// contract as the tracer itself: no tracer, no events, no work.

// Paint is where one critical-path cycle goes: a layer (obs.Layer),
// and whether that layer is working or being waited on. A paint's
// number is its priority: where paints overlap, the highest takes the
// cycle. Handler work ranks below DTU work, waiting ranks above both,
// and wire time above everything; what no paint covers is app work,
// the lowest. In order: app, kernel, service, dtu, then app..noc
// waited on, then noc.
type Paint uint8

// NumPaints counts the paints: each layer working and waited on.
const NumPaints = 2 * Paint(numLayers)

// appWork is app working: the remainder no interval paints.
const appWork Paint = 0

// PaintOf returns the paint of layer l, waited on or working.
func PaintOf(l Layer, wait bool) Paint {
	switch {
	case wait:
		return Paint(LNoC + l) // after the work of app..dtu
	case l == LNoC:
		return NumPaints - 1
	}
	return Paint(l)
}

// Layer returns the paint's layer.
func (p Paint) Layer() Layer {
	switch {
	case p == NumPaints-1:
		return LNoC
	case p >= Paint(LNoC):
		return Layer(p) - LNoC
	}
	return Layer(p)
}

// Wait reports whether the paint is its layer being waited on.
func (p Paint) Wait() bool { return p >= Paint(LNoC) && p < NumPaints-1 }

func (p Paint) String() string {
	if p.Wait() {
		return p.Layer().String() + "/wait"
	}
	return p.Layer().String()
}

// BlameVec is one request's cycles per paint; they sum to its
// end-to-end latency. A cell holds 32 bits, four billion cycles: no
// request of a simulated run comes near that.
type BlameVec [NumPaints]uint32

// Total returns the sum over all paints.
func (v BlameVec) Total() uint64 {
	var s uint64
	for _, c := range v {
		s += uint64(c)
	}
	return s
}

// BlameTotal is BlameVec summed over many requests.
type BlameTotal [NumPaints]uint64

// Total returns the sum over all paints.
func (v BlameTotal) Total() uint64 {
	var s uint64
	for _, c := range v {
		s += c
	}
	return s
}

func (v *BlameTotal) add(o BlameVec) {
	for i, c := range o {
		v[i] += uint64(c)
	}
}

// Request is the completed-request summary the engine keeps per root
// span: identity, outcome, and the blame decomposition. The engine
// keeps one per completed request, so its fields are ordered to pack.
type Request struct {
	Span  SpanID
	PE    int32    // root PE
	Kind  Kind     // root kind (EvSyscallStart or EvSvcCallStart)
	Fail  bool     // root closed with an error, or an admission refusal fired
	Op    uint64   // root Arg0 (opcode / endpoint)
	Start sim.Time // root open
	End   sim.Time // root close
	Blame BlameVec
}

// Latency returns the end-to-end window length.
func (r Request) Latency() sim.Time { return r.End - r.Start }

// Exemplar is one worst-N request kept with its full event tree, so
// the exact p99/p99.9 path can be exported (`m3sim trace -span`).
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

// reqState is one in-flight root span being assembled. States and
// their event buffers are recycled through CritPath.free.
type reqState struct {
	root      Event
	events    []Event
	truncated bool
}

// summaryBlock is how many request summaries one population block
// holds. The population grows a block at a time, so keeping a summary
// never copies the ones before it.
const summaryBlock = 1024

// CritPath assembles request trees from the span stream and attributes
// their latency. Engine-local, simulation-context-only state, like the
// Tracer it feeds from.
//
// Its work is constant per event and per finished request
// (TestConsumeZeroAlloc): request states are pooled, attribution runs
// in per-CritPath scratch, summaries fill fixed blocks, and only a
// request that ranks among the exemplars gets a copy of its events.
type CritPath struct {
	opt CritPathOptions

	active    map[SpanID]*reqState
	last      *reqState // state of the last event's span, or nil
	free      []*reqState
	order     []SpanID // roots in opening order; see pushOrder
	orderHead int

	summaries [][]Request // blocks of up to summaryBlock, all full but the last
	nSummary  int
	exemplars []*Exemplar

	total BlameTotal
	hist  Histogram

	completed, failed, evicted, truncated, dropped uint64

	scratch attrScratch
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

// Consume ingests one event. It is shaped to serve as Options.Sink.
func (c *CritPath) Consume(ev Event) {
	if c == nil || ev.Span == 0 {
		return
	}
	st := c.last
	if st == nil || st.root.Span != ev.Span {
		var ok bool
		if st, ok = c.active[ev.Span]; !ok {
			if !isRoot(ev) {
				return // tail of an evicted or pre-existing span
			}
			c.evictOldest()
			st = c.newState(ev)
			c.active[ev.Span] = st
			c.pushOrder(ev.Span)
		}
		c.last = st
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

// newState takes a request state from the pool, or makes one.
func (c *CritPath) newState(root Event) *reqState {
	if n := len(c.free); n > 0 {
		st := c.free[n-1]
		c.free = c.free[:n-1]
		st.root = root
		return st
	}
	return &reqState{root: root, events: make([]Event, 0, 16)}
}

// release returns a finished or evicted state to the pool. A pooled
// state is reused for another span, so the last-span cache forgets it.
func (c *CritPath) release(st *reqState) {
	st.events, st.truncated = st.events[:0], false
	c.free = append(c.free, st)
	c.last = nil
}

// evictOldest makes room for a new root if the active set is full: it
// evicts the root opened longest ago that is still active.
func (c *CritPath) evictOldest() {
	for len(c.active) >= c.opt.MaxActive && c.orderHead < len(c.order) {
		span := c.order[c.orderHead]
		c.orderHead++
		if st, live := c.active[span]; live {
			delete(c.active, span)
			c.release(st)
			c.evicted++
		}
	}
}

// pushOrder records a newly opened root. Finished roots stay in order
// until it reaches 2*MaxActive entries; then the evicted prefix and
// every finished root are compacted out. Eviction skips finished roots
// anyway, so compaction never changes which root it picks, and order
// stays bounded whether or not the active set ever fills.
func (c *CritPath) pushOrder(span SpanID) {
	if len(c.order) >= 2*c.opt.MaxActive {
		live := c.order[:0]
		for _, s := range c.order[c.orderHead:] {
			if _, ok := c.active[s]; ok {
				live = append(live, s)
			}
		}
		c.order, c.orderHead = live, 0
	}
	c.order = append(c.order, span)
}

// finish closes a request: attribute, summarize, feed histogram/SLOs,
// capture an exemplar if it ranks, and recycle the state.
func (c *CritPath) finish(span SpanID, st *reqState, end Event) {
	delete(c.active, span)
	req := Request{
		Span: span, PE: st.root.PE, Kind: st.root.Kind, Op: st.root.Arg0,
		Start: st.root.At, End: end.At,
	}
	var refused bool
	req.Blame, refused = c.scratch.attribute(st.events, req.Start, req.End)
	req.Fail = end.Arg1 != 0 || refused
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
	if c.nSummary < c.opt.MaxRequests {
		c.keep(req)
	} else {
		c.dropped++
	}
	c.offerExemplar(&req, st)
	c.release(st)
}

// keep appends req to the population, starting a new block when the
// last one is full. A block holds at most what MaxRequests still
// admits, so a small bound never reserves a whole block.
func (c *CritPath) keep(req Request) {
	n := len(c.summaries)
	if n == 0 || len(c.summaries[n-1]) == cap(c.summaries[n-1]) {
		size := min(summaryBlock, c.opt.MaxRequests-c.nSummary)
		c.summaries = append(c.summaries, make([]Request, 0, size))
		n++
	}
	c.summaries[n-1] = append(c.summaries[n-1], req)
	c.nSummary++
}

// exemplarLess orders worst-first: latency descending, SpanID
// ascending as the deterministic tie-break.
func exemplarLess(a, b *Request) bool {
	if a.Latency() != b.Latency() {
		return a.Latency() > b.Latency()
	}
	return a.Span < b.Span
}

// offerExemplar inserts req into the worst-first exemplar list if it
// ranks, after every exemplar it does not beat.
func (c *CritPath) offerExemplar(req *Request, st *reqState) {
	n := len(c.exemplars)
	if n == c.opt.Exemplars && !exemplarLess(req, &c.exemplars[n-1].Request) {
		return // the common case: not worse than the current best N
	}
	i := sort.Search(n, func(i int) bool { return exemplarLess(req, &c.exemplars[i].Request) })
	if n == c.opt.Exemplars {
		c.exemplars = c.exemplars[:n-1]
	}
	ex := &Exemplar{Request: *req, Events: slices.Clone(st.events), Truncated: st.truncated}
	c.exemplars = slices.Insert(c.exemplars, i, ex)
}

// peStart is a per-PE timestamp and the layer of the event that set
// it: a handler start, or the start of an open service request or
// credit stall.
type peStart struct {
	pe    int32
	layer Layer
	at    sim.Time
}

// peOpens is a small per-PE set of open brackets: the first open on a
// PE holds until a close on the same PE takes it.
type peOpens []peStart

func (m *peOpens) open(ev Event) {
	for _, o := range *m {
		if o.pe == ev.PE {
			return
		}
	}
	*m = append(*m, peStart{ev.PE, ev.Layer, ev.At})
}

func (m *peOpens) close(pe int32) (peStart, bool) {
	for i, o := range *m {
		if o.pe == pe {
			(*m)[i] = (*m)[len(*m)-1]
			*m = (*m)[:len(*m)-1]
			return o, true
		}
	}
	return peStart{}, false
}

// attrScratch is attribute's reusable working state. Every slice is
// truncated, never freed, so a warmed-up CritPath attributes without
// allocating.
type attrScratch struct {
	pairer
	s, e       sim.Time // the request window paints are clipped to
	edges      []uint64 // paint edges, see paint
	handlers   []peStart
	rexmits    []sim.Time
	svc, stall peOpens
}

// A paint edge is one uint64, time<<5 | open<<4 | paint, so sorting
// the edges orders them by time. Simulated time stays far below 1<<59.
const edgeOpen = 1 << 4

// paint adds [from,to) in p, clipped to the request window, as an open
// and a close edge. Degenerate intervals paint nothing, and neither
// does app work: it is the remainder.
func (a *attrScratch) paint(from, to sim.Time, p Paint) {
	from, to = max(from, a.s), min(to, a.e)
	if to > from && p != appWork {
		a.edges = append(a.edges, uint64(from)<<5|edgeOpen|uint64(p), uint64(to)<<5|uint64(p))
	}
}

// attribute decomposes the window [s,e] of one request. It builds
// painted intervals from the request's own events and gives every
// cycle the highest-priority paint covering it; the unpainted
// remainder is app work. The paints sum exactly to e-s. A working
// interval paints the layer of the event that opens it; a wait paints
// the layer waited on: the handler a message waits for, the DTU that
// stalls or retransmits, the layer that refused the request. refused
// reports an admission refusal.
func (a *attrScratch) attribute(events []Event, s, e sim.Time) (v BlameVec, refused bool) {
	a.s, a.e = s, e
	a.edges, a.handlers, a.rexmits = a.edges[:0], a.handlers[:0], a.rexmits[:0]
	a.svc, a.stall = a.svc[:0], a.stall[:0]

	for _, ev := range events {
		switch ev.Kind {
		case EvKSyscallStart:
			// Handler start: where kernel processing of this span begins
			// on some PE. Used to close receiver-side waiting gaps.
			a.handlers = append(a.handlers, peStart{ev.PE, ev.Layer, ev.At})
		case EvSvcReq:
			// A service handling request is a handler start too, and runs
			// until the next reply leaving the same PE.
			a.handlers = append(a.handlers, peStart{ev.PE, ev.Layer, ev.At})
			a.svc.open(ev)
		case EvReplySend:
			if o, ok := a.svc.close(ev.PE); ok {
				a.paint(o.at, ev.At, PaintOf(o.layer, false))
			}
		case EvCreditStall:
			a.stall.open(ev)
		case EvCreditOK:
			if o, ok := a.stall.close(ev.PE); ok {
				a.paint(o.at, ev.At, PaintOf(o.layer, true))
			}
		case EvRetransmit, EvXmitAbort:
			// Any message flight whose window contains one of these is a
			// lossy flight: its non-wire time is retransmit backoff.
			a.rexmits = append(a.rexmits, ev.At)
		case EvAdmitRefuse:
			// From the first refusal on, the request waits out the
			// refusing layer's fast-fail path.
			if !refused {
				a.paint(ev.At, e, PaintOf(ev.Layer, true))
				refused = true
			}
		}
	}

	a.pair(events)
	for _, pr := range a.pairs {
		open := &events[pr.open]
		start, end := open.At, events[pr.close].At
		switch open.Kind {
		case EvKSyscallStart, EvSvcCallStart, EvXferStart, EvPktInject:
			// Handler work, kernel-to-service calls, transfers and packet
			// flights. (The app-layer svccall root is the whole window
			// and paints app, the remainder anyway.)
			a.paint(start, end, PaintOf(open.Layer, false))
		case EvMsgSend, EvReplySend:
			a.paint(start, end, PaintOf(open.Layer, false))
			// Receiver-side waiting: the message landed at end but the
			// handler on the destination PE (Arg1) picked it up later —
			// paint the gap as waiting on that handler's layer.
			dst := int32(open.Arg1)
			var gap peStart
			found := false
			for _, h := range a.handlers {
				if h.pe == dst && h.at >= end && (!found || h.at < gap.at) {
					gap, found = h, true
				}
			}
			if found && gap.at > end {
				a.paint(end, gap.at, PaintOf(gap.layer, true))
			}
			// Lossy flight: everything not covered by wire time inside
			// it is the flight's layer waited on.
			for _, t := range a.rexmits {
				if t >= start && t <= end {
					a.paint(start, end, PaintOf(open.Layer, true))
					break
				}
			}
		}
	}

	return a.paintSweep(), refused
}

// paintSweep resolves overlapping paints by priority over [s,e] and
// returns the per-paint totals, with the remainder as app work. It
// sweeps the sorted edges, keeping how many intervals of each paint
// are open; every segment between two edge times goes to the highest
// paint open over it. Which paint wins a segment depends only on the
// set of intervals, never on their order: a paint is its priority.
func (a *attrScratch) paintSweep() BlameVec {
	var v BlameVec
	s, e := a.s, a.e
	if e <= s {
		return v
	}
	slices.Sort(a.edges)
	var open [NumPaints]int32 // open intervals per paint
	mask := uint16(1)         // bit p set while paint p is open; app work always is
	at := s
	for _, edge := range a.edges {
		if t := sim.Time(edge >> 5); t > at {
			v[bits.Len16(mask)-1] += uint32(t - at)
			at = t
		}
		p := Paint(edge & (edgeOpen - 1))
		if edge&edgeOpen != 0 {
			open[p]++
		} else {
			open[p]--
		}
		if open[p] > 0 {
			mask |= 1 << p
		} else {
			mask &^= 1 << p
		}
	}
	v[appWork] += uint32(e - at)
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
	Total     BlameTotal
	Quantiles []ReqQuantile
	Exemplars []*Exemplar
}

// Hist returns the end-to-end latency histogram over completed
// requests.
func (c *CritPath) Hist() *Histogram { return &c.hist }

// Completed returns the number of finished requests.
func (c *CritPath) Completed() uint64 { return c.completed }

// Requests returns the retained request population sorted by
// (latency, SpanID) ascending — the quantile order. Pick quantiles
// from it with NearestRank.
func (c *CritPath) Requests() []Request {
	out := slices.Concat(c.summaries...)
	slices.SortStableFunc(out, func(a, b Request) int {
		if a.Latency() != b.Latency() {
			return cmp.Compare(a.Latency(), b.Latency())
		}
		return cmp.Compare(a.Span, b.Span)
	})
	return out
}

// NearestRank is the nearest-rank index of quantile q in a sorted
// population of n > 0.
func NearestRank(q float64, n int) int {
	return min(max(int(q*float64(n)+0.5)-1, 0), n-1)
}

// ReportAt builds the attribution report for the given quantiles. The
// population is sorted once for all of them.
func (c *CritPath) ReportAt(qs []float64) Report {
	r := Report{
		Completed: c.completed, Failed: c.failed, Evicted: c.evicted,
		Truncated: c.truncated, Dropped: c.dropped, Total: c.total,
		Exemplars: slices.Clone(c.exemplars),
	}
	if c.nSummary == 0 {
		return r
	}
	pop := c.Requests()
	for _, q := range qs {
		req := pop[NearestRank(q, len(pop))]
		r.Quantiles = append(r.Quantiles, ReqQuantile{
			Q: q, Span: req.Span, Kind: req.Kind.String(),
			Latency: uint64(req.Latency()), Fail: req.Fail, Blame: req.Blame,
		})
	}
	return r
}

// WriteFolded writes the aggregate blame decomposition in folded
// flamegraph format (root-kind;paint cycles), the same shape
// the profiler's WriteFolded emits (`m3sim prof -o`), so the two
// collapse into one flamegraph.
func (c *CritPath) WriteFolded(w io.Writer) error {
	var agg [numKinds]BlameTotal // by root kind
	for _, b := range c.summaries {
		for _, req := range b {
			agg[req.Kind].add(req.Blame)
		}
	}
	type line struct {
		path   string
		cycles uint64
	}
	var lines []line
	for k := range agg {
		for p, cyc := range agg[k] {
			if cyc != 0 {
				lines = append(lines, line{Kind(k).String() + ";" + Paint(p).String(), cyc})
			}
		}
	}
	slices.SortFunc(lines, func(a, b line) int { return strings.Compare(a.path, b.path) })
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %d\n", l.path, l.cycles); err != nil {
			return err
		}
	}
	return nil
}
