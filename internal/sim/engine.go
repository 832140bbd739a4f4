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
// Two engine internals are configurable (Config) without changing any
// observable schedule: the event queue implementation (an O(1)
// calendar queue by default, the original binary heap behind a flag
// for differential testing) and conservative parallel execution of
// shard-tagged events (ScheduleShard; see docs/PARALLEL.md). The
// determinism contract extends across all configurations: every
// Config must produce byte-identical traces, which is enforced by the
// differential harness in internal/bench.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulated time stamp, measured in cycles.
type Time uint64

// serialShard tags an event with no shard affinity: it runs in engine
// context with exclusive access to all simulation state.
const serialShard int32 = -1

// event is a scheduled callback. Events are engine-pooled: Schedule
// takes one from the freelist and step returns it zeroed, so the
// steady-state hot path allocates nothing per event.
type event struct {
	//m3vet:resolve sharedstate owner events are created, executed and pooled on the engine goroutine only
	at Time
	//m3vet:resolve sharedstate owner written once at Schedule time on the engine goroutine
	seq uint64
	// fn is set for serial events, sfn (with shard >= 0) for sharded
	// ones; exactly one is non-nil.
	//m3vet:resolve sharedstate owner written at Schedule and zeroed at pool return, both engine-side
	fn func()
	//m3vet:resolve sharedstate owner written at ScheduleShard and zeroed at pool return, both engine-side
	sfn func(*ShardCtx)
	//m3vet:resolve sharedstate owner written at Schedule time on the engine goroutine
	shard int32
	// next links the engine freelist.
	//m3vet:resolve sharedstate owner freelist links are only touched by the engine's pool get/put
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
// default: calendar queue, serial execution.
type Config struct {
	// Queue selects the event-queue implementation. Both yield events
	// in the identical (time, sequence) order.
	Queue QueueKind
	// Workers > 1 enables conservative parallel execution: maximal
	// same-cycle runs of shard-tagged events (ScheduleShard) execute on
	// a worker pool, grouped by shard, with all cross-shard effects
	// replayed in deterministic order at the batch barrier. Serial
	// events and Workers <= 1 behave exactly as the sequential engine
	// always has. See docs/PARALLEL.md.
	Workers int
}

// Engine owns the simulated clock and the event queue.
//
// All interaction with an Engine must happen from simulation context:
// either from inside a callback scheduled on it or from a process spawned
// on it. The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	//m3vet:resolve sharedstate owner bumped by Schedule, which shard contexts reach only through the act log
	seq uint64
	//m3vet:resolve sharedstate owner the event queue is pushed and popped on the engine goroutine only
	queue eventQueue
	//m3vet:resolve sharedstate owner event pool mutated by engine-side Schedule and step only
	free *event
	cfg  Config

	//m3vet:resolve sharedstate owner strict hand-off: set by the engine before waking a process
	current *Process

	//m3vet:resolve sharedstate owner process accounting happens in Spawn and process exit, engine-side
	liveProcs int
	//m3vet:resolve sharedstate owner process accounting happens in Spawn and process exit, engine-side
	daemonProcs int
	executed    uint64
	// flushed tracks how much of executed has been folded into the
	// process-wide TotalExecutedEvents aggregate (host-side wall-speed
	// accounting, not simulation state).
	flushed    uint64
	deadlocked bool

	tracer func(at Time, source, event string)

	// Parallel-batch state (parallel.go). inBatch is set strictly
	// before the workers start and cleared strictly after they join,
	// so workers observe it as true race-free; it turns an engine
	// Schedule from shard context into a panic instead of a data race.
	inBatch  bool
	pool     *shardPool
	batch    []*event
	batchCtx []*ShardCtx
	freeCtx  []*ShardCtx
	groupOf  map[int32]int
	groups   [][]int
}

// NewEngine returns a default-configured engine (calendar queue,
// serial) with an empty event queue at time zero.
func NewEngine() *Engine { return NewEngineWith(Config{}) }

// NewEngineWith returns an engine with the given configuration. All
// configurations produce identical schedules; see Config.
func NewEngineWith(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	switch cfg.Queue {
	case QueueHeap:
		e.queue = &heapQueue{}
	default:
		e.queue = newCalendarQueue()
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// ExecutedEvents returns the number of events executed so far, a cheap
// progress and determinism metric.
func (e *Engine) ExecutedEvents() uint64 { return e.executed }

// alloc takes an event from the freelist (or the heap on a cold
// start), stamps it with the next sequence number, and fills it.
func (e *Engine) alloc(at Time, fn func(), sfn func(*ShardCtx), shard int32) *event {
	ev := e.free
	if ev == nil {
		ev = &event{}
	} else {
		e.free = ev.next
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.sfn, ev.shard, ev.next = at, e.seq, fn, sfn, shard, nil
	return ev
}

// release zeroes an executed event (pool hygiene: no stale callbacks
// or shard tags survive on the freelist) and returns it to the pool.
func (e *Engine) release(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// checkSchedulable panics on the two scheduling bugs the engine can
// name precisely; see Schedule and ScheduleShard.
func (e *Engine) checkSchedulable() {
	if e.inBatch {
		panic("sim: Schedule from a parallel shard context; use ShardCtx.Schedule/ScheduleShard/Defer")
	}
	if e.deadlocked {
		panic(fmt.Sprintf("sim: Schedule on deadlocked engine (%d processes parked forever)", e.liveProcs))
	}
}

// Schedule registers fn to run after delay cycles. Callbacks run in the
// engine's goroutine and must not block; to model blocking behaviour use
// a Process.
//
// Scheduling onto a deadlocked engine (see Deadlocked) panics: any new
// event could resume a process that the finished run already reported
// as parked forever, silently contradicting Deadlocked. A panic names
// the bug instead. Scheduling from inside a parallel shard callback
// also panics — shard code must route engine interaction through its
// ShardCtx, which replays it in deterministic order at the batch
// barrier.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.checkSchedulable()
	e.queue.push(e.alloc(e.now+delay, fn, nil, serialShard))
}

// ScheduleShard registers fn to run after delay cycles with shard
// affinity: under a parallel engine (Config.Workers > 1), same-cycle
// runs of sharded events execute concurrently, grouped by shard, while
// per-shard order and all observable effects stay identical to serial
// execution. Under a serial engine the callback runs inline exactly
// like Schedule, with an immediate-mode ShardCtx.
//
// The shard contract: fn may touch only state owned by its shard;
// everything else — scheduling, trace emission, signals, shared
// counters — must go through the ShardCtx. m3vet's parsafe pass checks
// the write set of sharded callbacks against the shared-state
// inventory (docs/PARALLEL.md, docs/ANALYSIS.md).
func (e *Engine) ScheduleShard(shard int, delay Time, fn func(*ShardCtx)) {
	if shard < 0 {
		panic("sim: ScheduleShard with negative shard")
	}
	e.checkSchedulable()
	e.queue.push(e.alloc(e.now+delay, nil, fn, int32(shard)))
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
// resume them. For daemon processes (server loops — m3fs, DTU request
// servers, the kernel dispatcher — marked via Process.SetDaemon) that
// is the expected end state of every run. Any *non-daemon* process
// parked forever is a genuine deadlock: a client stuck waiting for a
// message that will never come. Run records that as a deadlock — a
// state in which scheduling new work is a bug; see Schedule.
func (e *Engine) Run() Time {
	for e.queue.len() > 0 {
		e.step()
	}
	e.stopPool()
	e.flushExecuted()
	if e.liveProcs > e.daemonProcs {
		e.deadlocked = true
	}
	return e.now
}

// totalExecuted aggregates executed-event counts across every engine
// in the process. It exists purely for host-side wall-speed reporting
// (events_per_sec_wall in the bench witness trajectory) and never
// feeds back into simulation state.
var totalExecuted atomic.Uint64

// TotalExecutedEvents returns the process-wide number of executed
// events across all engines whose Run/RunUntil calls have completed.
// Harnesses diff it around a run to report simulator wall-speed.
func TotalExecutedEvents() uint64 { return totalExecuted.Load() }

// flushExecuted folds this engine's executed-event delta into the
// process-wide aggregate. Called once per Run/RunUntil completion, so
// the per-event hot path pays nothing.
func (e *Engine) flushExecuted() {
	if d := e.executed - e.flushed; d > 0 {
		e.flushed = e.executed
		totalExecuted.Add(d)
	}
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
	e.stopPool()
	e.flushExecuted()
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
	if ev.sfn == nil {
		fn := ev.fn
		e.release(ev)
		e.executed++
		fn()
		return
	}
	e.stepShard(ev)
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

// SetTracer installs a callback receiving (time, source, event) lines
// from instrumented components (DTUs, the kernel). Tracing is off by
// default; call sites guard event-string formatting with Tracing.
// Install tracers before running: shard callbacks read the installed
// state concurrently and rely on it not changing mid-run.
func (e *Engine) SetTracer(fn func(at Time, source, event string)) { e.tracer = fn }

// Tracing reports whether a tracer is installed.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Emit delivers one trace event at the current time.
func (e *Engine) Emit(source, event string) {
	if e.tracer != nil {
		e.tracer(e.now, source, event)
	}
}
