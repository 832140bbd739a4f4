// Package sim provides a deterministic, process-based discrete-event
// simulation engine. It is the substrate on which the hardware models
// (NoC, DRAM, DTU, PEs) and all simulated software run.
//
// The engine advances a cycle-granular clock and executes events in
// (time, sequence) order, so a given configuration always produces the
// same schedule. Simulated activities are either plain callbacks or
// processes: coroutines (iter.Pull) that run in strict hand-off with the
// engine — at most one of the engine and the processes executes at any
// moment, which makes the simulation deterministic despite each process
// having its own stack. A switch between the engine and a process is a
// direct goroutine switch in the runtime, with no scheduler wake-up.
//
// One engine internal is configurable (Config) without changing any
// observable schedule: the event queue implementation, an O(1) calendar
// queue by default and the original binary heap as the reference for
// differential testing (see docs/ENGINE.md). Both must produce
// byte-identical traces, which is enforced by the differential harness
// in internal/bench.
package sim

import "fmt"

// Time is a simulated time stamp, measured in cycles.
type Time uint64

// event is a scheduled callback. Events are engine-pooled: Schedule
// takes one from the freelist and step returns it zeroed, so the
// steady-state hot path allocates nothing per event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// next links the engine freelist.
	next *event
}

// QueueKind selects the engine's event-queue implementation.
type QueueKind uint8

const (
	// QueueCalendar is the default O(1) calendar queue (calendar.go).
	QueueCalendar QueueKind = iota
	// QueueHeap is the original binary min-heap, kept as the reference
	// implementation for differential testing.
	QueueHeap
)

// Config parameterizes an engine. The zero value is the production
// default: the calendar queue.
type Config struct {
	// Queue selects the event-queue implementation. Both yield events
	// in the identical (time, sequence) order.
	Queue QueueKind
}

// Engine owns the simulated clock and the event queue.
//
// All interaction with an Engine must happen from simulation context:
// either from inside a callback scheduled on it or from a process spawned
// on it. The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	free  *event

	current *Process

	liveProcs   int
	daemonProcs int
	executed    uint64
	deadlocked  bool
}

// NewEngine returns a default-configured engine (calendar queue) with
// an empty event queue at time zero.
func NewEngine() *Engine { return NewEngineWith(Config{}) }

// NewEngineWith returns an engine with the given configuration. All
// configurations produce identical schedules; see Config.
func NewEngineWith(cfg Config) *Engine {
	e := &Engine{}
	switch cfg.Queue {
	case QueueHeap:
		e.queue = &heapQueue{}
	default:
		e.queue = newCalendarQueue()
	}
	return e
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// ExecutedEvents returns the number of events executed so far, a cheap
// progress and determinism metric.
func (e *Engine) ExecutedEvents() uint64 { return e.executed }

// alloc takes an event from the freelist (or the heap on a cold
// start), stamps it with the next sequence number, and fills it.
func (e *Engine) alloc(at Time, fn func()) *event {
	ev := e.free
	if ev == nil {
		ev = &event{}
	} else {
		e.free = ev.next
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.next = at, e.seq, fn, nil
	return ev
}

// release zeroes an executed event (pool hygiene: no stale callback
// survives on the freelist) and returns it to the pool.
func (e *Engine) release(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// Schedule registers fn to run after delay cycles. Callbacks run in the
// engine's goroutine and must not block; to model blocking behaviour use
// a Process.
//
// Scheduling onto a deadlocked engine (see Deadlocked) panics: any new
// event could resume a process that the finished run already reported
// as parked forever, silently contradicting Deadlocked. A panic names
// the bug instead.
func (e *Engine) Schedule(delay Time, fn func()) {
	if e.deadlocked {
		panic(fmt.Sprintf("sim: Schedule on deadlocked engine (%d processes parked forever)", e.liveProcs))
	}
	e.queue.push(e.alloc(e.now+delay, fn))
}

// Pending reports whether any events remain queued.
func (e *Engine) Pending() bool { return e.queue.len() > 0 }

// LiveProcesses returns the number of spawned processes that have not
// yet returned. Processes blocked forever (e.g. a server loop waiting
// for requests after the workload finished) keep this non-zero without
// keeping the event queue non-empty.
func (e *Engine) LiveProcesses() int { return e.liveProcs }

// Run executes events until the queue is empty and returns the final
// simulated time.
//
// If live processes remain when the queue drains, they are parked
// forever: events are the only wake source, so no future step can
// resume them. For daemon processes (server loops — m3fs, the kernel
// dispatcher — marked via Process.SetDaemon) that is the expected end
// state of every run. Hardware (DTU request servers, memory-tile
// ports) runs as event callbacks on Stations and leaves nothing
// parked. Any *non-daemon* process
// parked forever is a genuine deadlock: a client stuck waiting for a
// message that will never come. Run records that as a deadlock — a
// state in which scheduling new work is a bug; see Schedule.
func (e *Engine) Run() Time {
	for e.queue.len() > 0 {
		e.step()
	}
	if e.liveProcs > e.daemonProcs {
		e.deadlocked = true
	}
	return e.now
}

// Deadlocked reports whether a completed Run left non-daemon
// processes parked forever. The chaos tests use this as the liveness
// assertion: injected faults must never wedge a surviving client.
func (e *Engine) Deadlocked() bool { return e.deadlocked }

// RunUntil executes events with time stamps <= limit. Events scheduled
// later remain queued. It returns the current time after the last
// executed event.
func (e *Engine) RunUntil(limit Time) Time {
	for {
		nx := e.queue.peek()
		if nx == nil || nx.at > limit {
			break
		}
		e.step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

func (e *Engine) step() {
	ev := e.queue.pop()
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%d < %d)", ev.at, e.now))
	}
	e.now = ev.at
	fn := ev.fn
	e.release(ev)
	e.executed++
	fn()
}

// resume hands control to p and returns when p parks or returns.
func (e *Engine) resume(p *Process) {
	if p.dead {
		return
	}
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
}
