package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// The streaming cycle-attribution profiler. It consumes the structured
// event stream — Consume is a valid Options.Sink, so profiling adds no
// new hot-path hooks — and aggregates simulated cycles per (PE, layer,
// span-kind) call path:
//
//	pe2;app/syscall                 self-cycles of the app-side syscall
//	pe2;app/syscall;dtu/flight      message flight time inside it
//	pe0;kernel/ksyscall             kernel-side handling
//
// A frame's self time is its duration minus the durations of frames
// and flights nested inside it, so summing every line under a prefix
// reproduces the prefix's total — the folded-stack invariant
// flamegraph tools expect (flamegraph.pl, speedscope, inferno).
//
// Pairing follows Intervals: same-PE kinds (syscall, ksyscall,
// svccall, xfer) nest on a per-PE frame stack; message flights
// (EvMsgSend/EvReplySend → EvMsgRecv, FIFO per span) attach as a leaf
// under the sender's frame that was open at send time. Packet flights
// are skipped: they run inside message flights and would double-count.
// Frames still open when the stream ends (parked daemons, crashed
// programs) are dropped — attribution only ever counts closed work.

// profFrame is one open frame on a PE's stack.
type profFrame struct {
	kind   Kind
	span   SpanID
	start  sim.Time
	child  uint64 // cycles attributed to nested frames and flights
	path   string // full folded path, "pe<N>;layer/kind;..."
	closed bool
}

// profFlight is one in-flight message awaiting its EvMsgRecv.
type profFlight struct {
	at     sim.Time
	path   string
	parent *profFrame // sender frame open at send time (nil: top level)
}

// Profiler aggregates self-cycles per folded call path.
type Profiler struct {
	stacks  map[int32][]*profFrame
	flights map[SpanID][]profFlight
	cycles  map[string]uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		stacks:  make(map[int32][]*profFrame),
		flights: make(map[SpanID][]profFlight),
		cycles:  make(map[string]uint64),
	}
}

// flightLabel is the folded-path leaf for a message flight.
const flightLabel = "dtu/flight"

// peRoot is the root path element of a PE's stacks.
func peRoot(pe int32) string { return fmt.Sprintf("pe%d", pe) }

// top returns the innermost open frame on pe's stack, or nil.
func (pr *Profiler) top(pe int32) *profFrame {
	st := pr.stacks[pe]
	if len(st) == 0 {
		return nil
	}
	return st[len(st)-1]
}

// Consume feeds one event. Pass it as Options.Sink (or call it from an
// existing sink) and read the aggregate after the run.
func (pr *Profiler) Consume(ev Event) {
	switch ev.Kind {
	case EvSyscallStart, EvKSyscallStart, EvSvcCallStart, EvXferStart:
		parent := peRoot(ev.PE)
		if t := pr.top(ev.PE); t != nil {
			parent = t.path
		}
		pr.stacks[ev.PE] = append(pr.stacks[ev.PE], &profFrame{
			kind: ev.Kind, span: ev.Span, start: ev.At,
			path: parent + ";" + ev.Layer.String() + "/" + ev.Kind.String(),
		})
	case EvSyscallEnd, EvKSyscallEnd, EvSvcCallEnd, EvXferEnd:
		pr.close(ev)
	case EvMsgSend, EvReplySend:
		if ev.Span == 0 {
			return
		}
		path := peRoot(ev.PE)
		parent := pr.top(ev.PE)
		if parent != nil {
			path = parent.path
		}
		pr.flights[ev.Span] = append(pr.flights[ev.Span], profFlight{
			at: ev.At, path: path + ";" + flightLabel, parent: parent,
		})
	case EvMsgRecv:
		if ev.Span == 0 {
			return
		}
		q := pr.flights[ev.Span]
		if len(q) == 0 {
			return
		}
		fl := q[0]
		pr.flights[ev.Span] = q[1:]
		if len(pr.flights[ev.Span]) == 0 {
			delete(pr.flights, ev.Span)
		}
		dur := uint64(ev.At - fl.at)
		pr.cycles[fl.path] += dur
		// Only a still-open sender frame can absorb the flight into its
		// child time; a closed frame's accounting is final.
		if fl.parent != nil && !fl.parent.closed {
			fl.parent.child += dur
		}
	}
}

// close pops the frame the end event matches — same opening kind and
// span — attributing its self time. A crash can kill a program between
// start and end events: frames stacked above the match never got their
// end and are discarded unattributed.
func (pr *Profiler) close(ev Event) {
	open := closeKey[ev.Kind]
	st := pr.stacks[ev.PE]
	for i := len(st) - 1; i >= 0; i-- {
		fr := st[i]
		if fr.kind != open || fr.span != ev.Span {
			continue
		}
		for _, dead := range st[i+1:] {
			dead.closed = true
		}
		pr.stacks[ev.PE] = st[:i]
		fr.closed = true
		total := uint64(ev.At - fr.start)
		self := total
		if fr.child < self {
			self -= fr.child
		} else {
			self = 0
		}
		pr.cycles[fr.path] += self
		if i > 0 {
			st[i-1].child += total
		}
		return
	}
}

// PathCycles is one folded-stack line.
type PathCycles struct {
	Path   string
	Cycles uint64
}

// Folded returns every (path, self-cycles) pair sorted by path — the
// deterministic aggregate of the run.
func (pr *Profiler) Folded() []PathCycles {
	var paths []string
	for p := range pr.cycles {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]PathCycles, 0, len(paths))
	for _, p := range paths {
		out = append(out, PathCycles{Path: p, Cycles: pr.cycles[p]})
	}
	return out
}

// WriteFolded renders the aggregate in folded-stack format — one
// "path cycles" line, ';'-separated frames — directly consumable by
// flamegraph.pl, inferno, or speedscope.
func (pr *Profiler) WriteFolded(w io.Writer) error {
	for _, pc := range pr.Folded() {
		if _, err := fmt.Fprintf(w, "%s %d\n", pc.Path, pc.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// Top returns the n paths with the most self-cycles, largest first
// (ties broken by path for determinism).
func (pr *Profiler) Top(n int) []PathCycles {
	all := pr.Folded()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Cycles != all[j].Cycles {
			return all[i].Cycles > all[j].Cycles
		}
		return all[i].Path < all[j].Path
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// TotalByPE sums attributed self-cycles per PE root, for the
// utilization table. The result is sorted by PE id.
func (pr *Profiler) TotalByPE() []PathCycles {
	byPE := make(map[string]uint64)
	for _, pc := range pr.Folded() {
		root, _, _ := strings.Cut(pc.Path, ";")
		byPE[root] += pc.Cycles
	}
	var roots []string
	for r := range byPE {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		// Numeric order: "pe2" before "pe10".
		a, b := roots[i], roots[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	out := make([]PathCycles, 0, len(roots))
	for _, r := range roots {
		out = append(out, PathCycles{Path: r, Cycles: byPE[r]})
	}
	return out
}
