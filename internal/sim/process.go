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

// Process is a simulated thread of execution: a function that runs on
// a coroutine (iter.Pull) in strict hand-off with the engine. Process
// methods that block (Sleep, Park, Signal.Wait, Resource.Acquire) park
// it until a later event wakes it. While parked, the process runs the
// engine's events on its own stack until one of them wakes it (see
// park), and switches back to the engine only when an event wakes
// another process or the loop must stop. A switch is a direct
// goroutine switch in the runtime, with no scheduler wake-up. The
// coroutine is the engine's: it may have run other processes before
// (see Spawn).
//
// A Process must only be used from its own coroutine (the function
// passed to Spawn).
type Process struct {
	eng  *Engine
	name string
	// co is the coroutine that runs the process; nil once a Kill
	// before the start gave it back.
	co *coroutine
	// wake is the event callback that resumes the process, built once
	// so that parking allocates no closure.
	wake   func()
	dead   bool
	killed bool
	daemon bool

	// done is signalled when the process function returns.
	done Signal
}

// coroutine runs process functions one after another. Between two it
// is idle: it sits on the engine's freelist, parked in yield with no
// frame of simulation code on its stack.
type coroutine struct {
	// next resumes the coroutine until it parks or its function
	// returns; stop ends an idle coroutine's goroutine.
	next func() (struct{}, bool)
	stop func()
	// yield parks the coroutine, handing control back to next's caller.
	yield func(struct{}) bool
	// p and fn are the process it runs and the function it has yet to
	// start; fn is cleared at the start.
	p  *Process
	fn func(*Process)
	// link chains the engine's freelist of idle coroutines.
	link *coroutine
}

// Spawn creates a process named name and schedules it to start at the
// current simulated time. The function fn runs as a coroutine in
// hand-off with the engine; when fn returns the process terminates and
// its Done signal fires. A panic in fn propagates out of Engine.Run.
//
// The coroutine is an idle one from the engine's freelist, or a new
// one when the list is empty. Reuse changes no event: the start is the
// same event, at the same cycle with the same sequence number, and
// counts as a resume either way.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.done.eng = e
	p.wake = func() { e.resume(p) }
	co := e.idle
	if co == nil {
		co = e.newCoroutine()
	} else {
		e.idle, co.link = co.link, nil
	}
	co.p, co.fn, p.co = p, fn, co
	e.liveProcs++
	e.Schedule(0, p.wake)
	return p
}

// newCoroutine builds a coroutine that runs one process function after
// another. When a function returns, the coroutine does the process's
// end-of-life bookkeeping, puts itself on the engine's freelist and
// yields; the next Spawn that takes it resumes it with a new function.
// Three ends keep it off the list for good. A killed process's
// coroutine is never resumed again: it stays parked, as a crashed
// PE's program counter never advances. A function that panics ends
// its coroutine, and iter.Pull carries the panic to next's caller.
// And stopIdle stops an idle coroutine, whose yield then returns
// false.
func (e *Engine) newCoroutine() *coroutine {
	co := &coroutine{}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		defer func() {
			// Only a panic leaves a process on the coroutine: the
			// process is dead, and the engine is out of its code and
			// its loop.
			if p := co.p; p != nil {
				e.current, e.looping, e.handoff, e.woken = nil, nil, nil, false
				if !p.dead {
					p.retire()
				}
			}
		}()
		for {
			p, fn := co.p, co.fn
			co.fn = nil
			e.resumes++
			fn(p)
			p.retire()
			p.done.Broadcast()
			co.p, p.co = nil, nil
			co.link, e.idle = e.idle, co
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return co
}

// stopIdle ends the goroutines of the idle coroutines. A run call does
// it when it leaves the queue empty: an idle coroutine has no frame of
// simulation code on its stack, so stopping it unwinds nothing.
func (e *Engine) stopIdle() {
	for co := e.idle; co != nil; co = co.link {
		co.stop()
	}
	e.idle = nil
}

// Name returns the name given at Spawn time.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// Done returns a signal that fires when the process function returns.
// Another process can Join by waiting on it.
func (p *Process) Done() *Signal { return &p.done }

// Dead reports whether the process function has returned or the
// process was killed.
func (p *Process) Dead() bool { return p.dead }

// Kill terminates a parked process without running the rest of its
// function: the simulated core stopped mid-instruction. The process
// counts as dead immediately — its Done signal fires and later resume
// attempts (a Signal broadcast, a Resource grant) are ignored. Once the
// process has started, its coroutine is never resumed again; it stays
// parked and is leaked deliberately: a crashed PE's program counter
// never advances again, and the leak is bounded by the number of
// injected crashes. A process killed before its start never ran, and
// its coroutine goes back to the engine's freelist.
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
	p.retire()
	if co := p.co; co.fn != nil {
		// Not started: the coroutine holds no frame of p's.
		co.p, co.fn, p.co = nil, nil, nil
		co.link, p.eng.idle = p.eng.idle, co
	}
	p.done.Broadcast()
}

// retire counts p dead.
func (p *Process) retire() {
	p.dead = true
	p.eng.liveProcs--
	if p.daemon {
		p.eng.daemonProcs--
	}
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
		p.co.yield(struct{}{})
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
