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
// Two rules save most switches without changing the schedule. A Sleep
// whose wake-up would be the next event advances the clock in place
// (Process.Sleep). A parked process runs the engine's events on its own
// stack until one of them wakes it, and returns without a switch
// (Process.park); that rests on the rule that a wake-up ends its event.
//
// The pending events live in an O(1) calendar queue (calendar.go), the
// engine's only event store. Its tests hold it to the pop order of a
// binary heap kept in calendar_test.go, and internal/bench pins each
// workload's run witness, so a change in the schedule fails a test
// (see docs/ENGINE.md).
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

// Engine owns the simulated clock and the event queue.
//
// All interaction with an Engine must happen from simulation context:
// either from inside a callback scheduled on it or from a process spawned
// on it. Create one with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue calendarQueue
	free  *event

	// current is the process whose own code is running; nil while an
	// event runs, on the engine's stack or on a parked process's.
	current *Process
	// looping is the parked process whose stack runs the events (see
	// Process.park); nil while they run on the engine's.
	looping *Process
	// handoff is the process that an event run by looping woke: the
	// loop stops, and switchTo switches to it.
	handoff *Process
	// woken is set once the running event has woken a process. A
	// wake-up ends its event, so a Schedule, a Kill or a second wake-up
	// after it panics.
	woken bool
	// limit is the last cycle the active Run or RunUntil may reach
	// (zero until the first run call): no event past it runs, and a
	// Sleep past it parks instead of advancing the clock in place.
	limit Time

	liveProcs   int
	daemonProcs int
	executed    uint64
	// resumes counts each process start and each return from park;
	// the process side counts them.
	resumes    uint64
	deadlocked bool
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.init()
	return e
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// ExecutedEvents returns the number of events executed so far, a cheap
// progress and determinism metric. A Sleep that advances the clock in
// place counts as the wake-up event it stands for, so the count does
// not depend on which Sleeps took a coroutine switch.
func (e *Engine) ExecutedEvents() uint64 { return e.executed }

// Sequence returns the number of sequence numbers issued so far: one
// per scheduled event and one per wake-up a process took in place.
// Two runs that are event for event identical issue the same number.
func (e *Engine) Sequence() uint64 { return e.seq }

// Resumes returns the number of times a process got control so far:
// each process start and each return from a park, whether a coroutine
// switch delivered it or the process's own loop did (Process.park). It
// measures the simulator's host cost, not simulated behaviour: a Sleep
// or a Network.Send that runs in place takes none. A return from park
// without a switch counts, so Resumes does not tell how many parks ran
// in place.
func (e *Engine) Resumes() uint64 { return e.resumes }

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

// Schedule registers fn to run after delay cycles. Callbacks run on the
// engine's stack or a parked process's, and must not block; to model
// blocking behaviour use a Process.
//
// Scheduling onto a deadlocked engine (see Deadlocked) panics: any new
// event could resume a process that the finished run already reported
// as parked forever, silently contradicting Deadlocked. A panic names
// the bug instead. So does a Schedule after a wake-up in the same event
// (see Process.Waker).
func (e *Engine) Schedule(delay Time, fn func()) {
	if e.deadlocked {
		panic(fmt.Sprintf("sim: Schedule on deadlocked engine (%d processes parked forever)", e.liveProcs))
	}
	if e.woken {
		panic("sim: Schedule after a wake-up in the same event; a wake-up ends its event")
	}
	e.queue.push(e.alloc(e.now+delay, fn))
}

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
	e.limit = ^Time(0)
	for e.step() {
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
// later remain queued, and a Sleep that would end past limit parks
// until a later run call. It then moves the clock to limit, even if
// the last executed event was earlier (the clock never moves back),
// and returns the new time.
func (e *Engine) RunUntil(limit Time) Time {
	e.limit = limit
	for e.step() {
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// step runs the next event if it is due by the active run's limit and
// reports whether it ran one. Run, RunUntil and a parked process's
// loop (Process.park) all take their events through it.
func (e *Engine) step() bool {
	ev := e.queue.popBy(e.limit)
	if ev == nil {
		return false
	}
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%d < %d)", ev.at, e.now))
	}
	e.now = ev.at
	fn := ev.fn
	e.release(ev)
	e.executed++
	fn()
	e.woken = false
	return true
}

// Clear reports whether the next d cycles are clear: no queued event
// is due at or before now+d, and now+d is within the active run's
// limit. A process that finds them clear, and schedules nothing into
// them on the way, can take them in any number of Sleeps that all run
// in place (Network.Send).
func (e *Engine) Clear(d Time) bool { return e.clearTo(e.now + d) }

// clearTo reports whether the cycles up to t are Clear. It is small
// enough to inline into advance, which runs on every Sleep.
func (e *Engine) clearTo(t Time) bool {
	return t >= e.now && t <= e.limit && !e.queue.dueBy(t)
}

// advance moves the clock d cycles ahead in place of scheduling and
// running a wake-up event, when that event would be the next one run:
// the next d cycles are Clear. It does the event's bookkeeping
// (sequence number, executed count, calendar cursor) and reports
// whether it advanced; on false the caller schedules and parks as
// usual.
func (e *Engine) advance(d Time) bool {
	t := e.now + d
	if !e.clearTo(t) {
		return false
	}
	e.seq++
	e.executed++
	e.now = t
	e.queue.advance(t)
	return true
}

// resume is the wake-up of p, and ends its event. While a parked
// process runs the event, it records p as the handoff: the loop returns
// to p in place, or stops and yields so that the switch that started it
// goes on to p (see Process.park). It is small enough to inline into
// every wake callback; the rest is switchTo.
func (e *Engine) resume(p *Process) {
	if p.dead {
		return
	}
	if e.looping == nil || e.woken {
		e.switchTo(p)
		return
	}
	e.handoff, e.woken = p, true
}

// switchTo is a wake-up on the engine's stack: it switches to p and
// returns when p yields or returns, then switches to each process
// handed off on the way. It panics on a second wake-up in one event
// and on a wake-up from a process's own code.
func (e *Engine) switchTo(p *Process) {
	if e.woken {
		panic(fmt.Sprintf("sim: second wake-up (%v) in one event; a wake-up ends its event", p))
	}
	if e.current != nil {
		panic(fmt.Sprintf("sim: %v woken by %v's own code; wake it from an event", p, e.current))
	}
	for p != nil {
		e.current = p
		p.next()
		p, e.handoff = e.handoff, nil
	}
	e.current, e.woken = nil, true
}
