// iter.Pull needs go1.23, but both go.mod files stay at go 1.22: the
// benchmark module (perf/go.mod) says go 1.22 and builds with
// -mod=readonly, which fails once the root module it replaces asks for
// a newer go line. This constraint raises only this file's language
// version.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a simulated thread of execution: a coroutine (iter.Pull)
// that runs in strict hand-off with the engine. Process methods that
// block (Sleep, Park, Signal.Wait, Resource.Acquire) park it until a
// later event wakes it. While parked, the process runs the engine's
// events on its own stack until one of them wakes it (see park), and
// switches back to the engine only when an event wakes another process
// or the loop must stop. A switch is a direct goroutine switch in the
// runtime, with no scheduler wake-up.
//
// A Process must only be used from its own coroutine (the function
// passed to Spawn).
type Process struct {
	eng  *Engine
	name string
	// next resumes the coroutine until it parks or returns.
	next func() (struct{}, bool)
	// yield parks the coroutine, handing control back to next's caller.
	yield func(struct{}) bool
	// wake is the event callback that resumes the process, built once
	// so that parking allocates no closure.
	wake   func()
	dead   bool
	killed bool
	daemon bool

	// done is signalled when the process function returns.
	done *Signal
}

// Spawn creates a process named name and schedules it to start at the
// current simulated time. The function fn runs as a coroutine in
// hand-off with the engine; when fn returns the process terminates and
// its Done signal fires. A panic in fn propagates out of Engine.Run.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.done = NewSignal(e)
	p.wake = func() { e.resume(p) }
	// stop is dropped: a process ends by returning or by Kill, and a
	// killed coroutine must stay parked rather than unwind.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		e.resumes++
		fn(p)
		// A killed process never gets here (its coroutine is never
		// resumed); the guard protects the bookkeeping against any
		// future path that could.
		if !p.killed {
			p.dead = true
			e.liveProcs--
			if p.daemon {
				e.daemonProcs--
			}
			p.done.Broadcast()
		}
	})
	e.liveProcs++
	e.Schedule(0, p.wake)
	return p
}

// Name returns the name given at Spawn time.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// Done returns a signal that fires when the process function returns.
// Another process can Join by waiting on it.
func (p *Process) Done() *Signal { return p.done }

// Dead reports whether the process function has returned or the
// process was killed.
func (p *Process) Dead() bool { return p.dead }

// Kill terminates a parked process without running the rest of its
// function: the simulated core stopped mid-instruction. The process
// counts as dead immediately — its Done signal fires and later resume
// attempts (a Signal broadcast, a Resource grant) are ignored. Its
// coroutine is never resumed again; it stays parked and is leaked
// deliberately: a crashed PE's program counter never advances again,
// and the leak is bounded by the number of injected crashes.
//
// Kill must not target the currently running process — a program
// cannot crash itself between two of its own instructions here;
// schedule the kill as an engine event instead. An event may kill the
// parked process that runs it (see park). Like a Schedule, a Kill
// after a wake-up in the same event panics. Killing an already-dead
// process is a no-op.
//
// A corpse leaks no resource capacity: every Resource unit a process
// can hold across a blocking point is released by an event scheduled
// at acquire time (NoC link occupancy) or held by unkillable holders
// (the kernel CPU, the memory tile's ports, which are event-driven
// hardware), and acquirers that die in the queue — parked in Acquire
// or owning an AcquireThen continuation — are skipped by the
// resource's dead-waiter handling.
func (p *Process) Kill() {
	if p.dead {
		return
	}
	if p.eng.current == p {
		panic("sim: Kill of the running process; schedule the kill as an event")
	}
	if p.eng.woken {
		panic("sim: Kill after a wake-up in the same event; a wake-up ends its event")
	}
	p.killed = true
	p.dead = true
	p.eng.liveProcs--
	if p.daemon {
		p.eng.daemonProcs--
	}
	p.done.Broadcast()
}

// Killed reports whether the process was terminated by Kill rather
// than by returning.
func (p *Process) Killed() bool { return p.killed }

// SetDaemon marks the process as a forever-running server loop: the
// kernel dispatcher, a service like m3fs. (Hardware servers — DTU
// request engines, memory-tile ports — are Stations, not processes.)
// Daemons left parked when the event queue drains are the expected end
// state of a run, not a deadlock; see Engine.Deadlocked.
func (p *Process) SetDaemon() {
	if !p.daemon && !p.dead {
		p.daemon = true
		p.eng.daemonProcs++
	}
}

// park blocks p until an event wakes it. Instead of yielding at once,
// p runs the engine's events itself, through the same step as Run,
// until one of them wakes p, and then returns without a coroutine
// switch. The loop stops and p yields to the engine when an event
// wakes another process (the handoff: the switchTo that switched to p
// switches to that process at once), at the active run's limit, on an
// empty queue, and when an event killed p, which then stays parked
// forever. Every event runs in the same order, at the same cycle and
// with the same sequence number as on the engine's stack; the wake-up
// that ended its event (see Waker) is delivered right after it either
// way. Every switch into a process starts on the engine's stack, so no
// stack holds more than one loop.
func (p *Process) park() {
	e := p.eng
	e.current, e.looping = nil, p
	for e.step() && e.handoff == nil && !p.dead {
	}
	e.looping = nil
	if e.handoff == p {
		e.current, e.handoff = p, nil
	} else {
		p.yield(struct{}{})
	}
	e.resumes++
}

// Park blocks p until an event calls its Waker. It is the blocking
// half of a continuation-based operation: start the operation with
// p.Waker() as its completion, then Park. The completion must run from
// a later event, never inline before Park.
func (p *Process) Park() { p.park() }

// Waker returns the callback that resumes p from Park. It is built
// once at Spawn, so handing it to a continuation allocates nothing.
// Calling it for a dead process is a no-op.
//
// A wake-up ends its event: calling the waker must be the last thing
// the event does, since p may run only once the event has returned
// (see park). A Schedule, a Kill or a second wake-up after it in the
// same event panics, and so does a wake-up from a process's own code.
func (p *Process) Waker() func() { return p.wake }

// Sleep advances the process's simulated time by d cycles. Other events
// run in the meantime.
//
// When no queued event is due at or before now+d, the wake-up would be
// the very next event, so Sleep does what that event would do in place:
// it takes a sequence number, counts as an executed event and moves the
// clock to now+d, without a coroutine switch. A Sleep that would end
// past the limit of the active RunUntil always parks.
func (p *Process) Sleep(d Time) {
	if p.eng.advance(d) {
		return
	}
	p.eng.Schedule(d, p.wake)
	p.park()
}

// Yield reschedules the process at the current time behind all events
// already queued for this cycle. When nothing else is due this cycle,
// it returns at once (see Sleep).
func (p *Process) Yield() { p.Sleep(0) }

// Join blocks until other has terminated. Joining a dead process
// returns immediately.
func (p *Process) Join(other *Process) {
	if other.dead {
		return
	}
	other.done.Wait(p)
}

func (p *Process) String() string {
	return fmt.Sprintf("proc(%s)", p.name)
}
