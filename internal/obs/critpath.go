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
	BlameShed                   // overload fast-fail aftermath: first admission refusal → root end
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
	Fail  bool     // root closed with an error, or an admission refusal fired
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

	total BlameVec
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
	shedAt, shed := firstShed(st.events)
	req.Fail = end.Arg1 != 0 || shed
	req.Blame = c.scratch.attribute(st.events, req.Start, req.End, shedAt, shed)
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

// firstShed returns the timestamp of the request's first admission
// refusal, if any: from there on the request lives in the shed path.
func firstShed(events []Event) (sim.Time, bool) {
	for _, ev := range events {
		if ev.Kind == EvAdmitRefuse {
			return ev.At, true
		}
	}
	return 0, false
}

// peStart is a per-PE timestamp: a handler start, or the start of an
// open service request or credit stall.
type peStart struct {
	pe int32
	at sim.Time
}

// peOpens is a small per-PE set of open brackets: the first open on a
// PE holds until a close on the same PE takes it.
type peOpens []peStart

func (m *peOpens) open(pe int32, at sim.Time) {
	for _, o := range *m {
		if o.pe == pe {
			return
		}
	}
	*m = append(*m, peStart{pe, at})
}

func (m *peOpens) close(pe int32) (sim.Time, bool) {
	for i, o := range *m {
		if o.pe == pe {
			(*m)[i] = (*m)[len(*m)-1]
			*m = (*m)[:len(*m)-1]
			return o.at, true
		}
	}
	return 0, false
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

// A paint edge is one uint64, time<<4 | open<<3 | cat, so sorting the
// edges orders them by time. Simulated time stays far below 1<<60.
const edgeOpen = 1 << 3

// paint adds [from,to) in cat, clipped to the request window, as an
// open and a close edge; degenerate intervals paint nothing.
func (a *attrScratch) paint(from, to sim.Time, cat BlameCat) {
	from, to = max(from, a.s), min(to, a.e)
	if to > from {
		a.edges = append(a.edges, uint64(from)<<4|edgeOpen|uint64(cat), uint64(to)<<4|uint64(cat))
	}
}

// attribute decomposes the window [s,e] of one request. It builds
// category intervals from the request's own events and paints every
// cycle with the highest-priority covering category; the unpainted
// remainder is app compute. The categories sum exactly to e-s.
func (a *attrScratch) attribute(events []Event, s, e sim.Time, shedAt sim.Time, shed bool) BlameVec {
	a.s, a.e = s, e
	a.edges, a.handlers, a.rexmits = a.edges[:0], a.handlers[:0], a.rexmits[:0]
	a.svc, a.stall = a.svc[:0], a.stall[:0]

	for _, ev := range events {
		switch ev.Kind {
		case EvKSyscallStart:
			// Handler start: where kernel processing of this span begins
			// on some PE. Used to close receiver-side queueing gaps.
			a.handlers = append(a.handlers, peStart{ev.PE, ev.At})
		case EvSvcReq:
			// A service handling request is a handler start too, and runs
			// until the next reply leaving the same PE; it is painted as
			// kernel time like kernel-side intervals.
			a.handlers = append(a.handlers, peStart{ev.PE, ev.At})
			a.svc.open(ev.PE, ev.At)
		case EvReplySend:
			if at, ok := a.svc.close(ev.PE); ok {
				a.paint(at, ev.At, BlameKernel)
			}
		case EvCreditStall:
			a.stall.open(ev.PE, ev.At)
		case EvCreditOK:
			if at, ok := a.stall.close(ev.PE); ok {
				a.paint(at, ev.At, BlameQueue)
			}
		case EvRetransmit, EvXmitAbort:
			// Any message flight whose window contains one of these is a
			// lossy flight: its non-wire time is retry/backoff.
			a.rexmits = append(a.rexmits, ev.At)
		}
	}

	a.pair(events)
	for _, pr := range a.pairs {
		open := &events[pr.open]
		start, end := open.At, events[pr.close].At
		switch open.Kind {
		case EvKSyscallStart, EvSvcCallStart:
			// Kernel-side processing. (The app-layer svccall root is the
			// whole window and paints nothing; kernel-layer ones do.)
			if open.Layer != LApp {
				a.paint(start, end, BlameKernel)
			}
		case EvXferStart:
			a.paint(start, end, BlameQueue)
		case EvMsgSend, EvReplySend:
			a.paint(start, end, BlameQueue)
			// Receiver-side queueing: the message landed at end but the
			// handler on the destination PE (Arg1) picked it up later —
			// paint the gap as queueing, not app.
			dst := int32(open.Arg1)
			var gapEnd sim.Time
			for _, h := range a.handlers {
				if h.pe == dst && h.at >= end && (gapEnd == 0 || h.at < gapEnd) {
					gapEnd = h.at
				}
			}
			if gapEnd > end {
				a.paint(end, gapEnd, BlameQueue)
			}
			// Lossy flight: everything not covered by wire time inside
			// it is retransmit/backoff.
			for _, t := range a.rexmits {
				if t >= start && t <= end {
					a.paint(start, end, BlameRetry)
					break
				}
			}
		case EvPktInject:
			a.paint(start, end, BlameNoC)
		}
	}

	if shed {
		a.paint(shedAt, e, BlameShed)
	}

	return a.paintSweep()
}

// prioCat maps a painting priority back to its category.
var prioCat = func() (p [NumBlame]BlameCat) {
	for cat, prio := range blamePrio {
		p[prio] = BlameCat(cat)
	}
	return p
}()

// paintSweep resolves overlapping paints by priority over [s,e] and
// returns the per-category totals, with the remainder as BlameApp.
// It sweeps the sorted edges, keeping how many paints of each category
// are open; every segment between two edge times goes to the
// highest-priority category open over it. Which paint wins a segment
// depends only on the set of paints, never on their order: every
// category has its own priority.
func (a *attrScratch) paintSweep() BlameVec {
	var v BlameVec
	s, e := a.s, a.e
	if e <= s {
		return v
	}
	slices.Sort(a.edges)
	var open [NumBlame]int32 // open paints per category
	mask := uint8(1)         // bit blamePrio[cat] set while cat is open; app always is
	at := s
	for _, edge := range a.edges {
		if t := sim.Time(edge >> 4); t > at {
			v[prioCat[bits.Len8(mask)-1]] += uint64(t - at)
			at = t
		}
		cat := BlameCat(edge & (edgeOpen - 1))
		if edge&edgeOpen != 0 {
			open[cat]++
		} else {
			open[cat]--
		}
		if open[cat] > 0 {
			mask |= 1 << blamePrio[cat]
		} else {
			mask &^= 1 << blamePrio[cat]
		}
	}
	v[BlameApp] += uint64(e - at)
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
// flamegraph format (root-kind;category cycles), the same shape
// the profiler's WriteFolded emits (`m3sim prof -o`), so the two
// collapse into one flamegraph.
func (c *CritPath) WriteFolded(w io.Writer) error {
	var agg [numKinds]BlameVec // by root kind
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
		for cat, cyc := range agg[k] {
			if cyc != 0 {
				lines = append(lines, line{Kind(k).String() + ";" + BlameCat(cat).String(), cyc})
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
