package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// refSleep is the reference Sleep: it always schedules the wake-up and
// parks, never advancing the clock in place. Process.Sleep must match
// it event for event.
func refSleep(p *Process, d Time) {
	p.Engine().Schedule(d, p.Waker())
	p.Park()
}

// sleepOp is one step of a mixed-load process.
type sleepOp struct {
	kind int // one of the op* constants
	d    Time
}

const (
	opSleep = iota
	opYield
	opCallback // schedule a logging callback d cycles ahead
	opWait     // wait on the shared signal
	opNotify   // notify the shared signal
	opHold     // acquire a resource unit, sleep d, release it
	opChain    // park on a chain of 1-4 callbacks, the last of which wakes the process
	opThen     // queue a hardware holder of a resource unit, d%64 cycles
	opSpawn    // spawn a child that sleeps d%32 cycles; join it, kill it before its start or kill it d%16 cycles later
	opKinds
)

// sleepLoad is one seeded mix: the processes' op lists, kill times,
// and the RunUntil windows with a host-scheduled callback after each.
type sleepLoad struct {
	procs   [][]sleepOp
	kills   []sleepKill
	windows []Time
	hostCB  []Time
}

// sleepKill kills process victim at cycle at.
type sleepKill struct {
	at     Time
	victim int
}

// sleepDelay draws a delay across the interesting bands: ties,
// near-future, inside the wheel and past its horizon.
func sleepDelay(rng *Rand) Time {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1, 2:
		return Time(1 + rng.Intn(16))
	case 3, 4:
		return Time(rng.Intn(wheelSize))
	default:
		return Time(wheelSize - 2 + rng.Intn(2*wheelSize))
	}
}

func newSleepLoad(seed uint64) sleepLoad {
	rng := NewRand(seed)
	var l sleepLoad
	for i := 0; i < 1+rng.Intn(6); i++ {
		var ops []sleepOp
		for j := 0; j < rng.Intn(60); j++ {
			ops = append(ops, sleepOp{kind: rng.Intn(opKinds), d: sleepDelay(rng)})
		}
		l.procs = append(l.procs, ops)
	}
	for i := 0; i < rng.Intn(3); i++ {
		l.kills = append(l.kills, sleepKill{Time(rng.Intn(20 * wheelSize)), rng.Intn(len(l.procs))})
	}
	var limit Time
	for i := 0; i < rng.Intn(8); i++ {
		limit += sleepDelay(rng)
		l.windows = append(l.windows, limit)
		l.hostCB = append(l.hostCB, Time(rng.Intn(64)))
	}
	return l
}

// sleepRun is what one run of a sleepLoad observably did.
type sleepRun struct {
	log      []string // "time actor" per step
	onStack  int      // log entries made on a parked process's stack
	executed uint64
	seq      uint64
	now      Time
	resumes  uint64
}

// run drives l on a fresh engine with the given sleep for every
// Sleep and Yield the processes make.
func (l sleepLoad) run(sleep func(p *Process, d Time)) sleepRun {
	e := NewEngine()
	sig := NewSignal(e)
	res := NewResource(e, 2)
	var r sleepRun
	record := func(actor string) {
		r.log = append(r.log, fmt.Sprintf("%d %s", e.Now(), actor))
		if e.looping != nil {
			r.onStack++
		}
	}
	callback := func(actor string) func() { return func() { record(actor) } }

	// A ticker broadcasts the signal every 300 cycles for a while, so
	// most waiters wake.
	var tick func()
	ticks := 0
	tick = func() {
		record("tick")
		sig.Broadcast()
		if ticks++; ticks < 100 {
			e.Schedule(300, tick)
		}
	}
	e.Schedule(300, tick)

	procs := make([]*Process, len(l.procs))
	for i, ops := range l.procs {
		name := fmt.Sprintf("p%d", i)
		procs[i] = e.Spawn(name, func(p *Process) {
			for j, op := range ops {
				switch op.kind {
				case opSleep:
					sleep(p, op.d)
				case opYield:
					sleep(p, 0)
				case opCallback:
					e.Schedule(op.d, callback(fmt.Sprintf("%s.%d-cb", name, j)))
				case opWait:
					sig.Wait(p)
				case opNotify:
					sig.Notify()
				case opHold:
					res.Acquire(p, 1)
					sleep(p, op.d)
					res.Release(1)
				case opChain:
					// A hardware flight the process waits out, as a
					// parked Network.Send does.
					k := op.d%4 + 1
					var hop func()
					hop = func() {
						record(fmt.Sprintf("%s.%d-hop", name, j))
						if k--; k > 0 {
							e.Schedule(op.d%7, hop)
							return
						}
						p.Waker()()
					}
					e.Schedule(op.d%7, hop)
					p.Park()
				case opThen:
					res.AcquireThen(nil, 1, func() {
						record(fmt.Sprintf("%s.%d-hw", name, j))
						e.Schedule(op.d%64, func() { res.Release(1) })
					})
				case opSpawn:
					child := e.Spawn(fmt.Sprintf("%s.%d-child", name, j), func(c *Process) {
						record(c.Name() + " start")
						sleep(c, op.d%32)
						record(c.Name() + " end")
					})
					switch op.d % 4 {
					case 0:
						p.Join(child)
					case 1:
						child.Kill()
					case 2:
						e.Schedule(op.d%16, child.Kill)
					}
				}
				record(fmt.Sprintf("%s.%d", name, j))
			}
		})
	}
	for _, k := range l.kills {
		victim := procs[k.victim]
		e.Schedule(k.at, func() {
			record(fmt.Sprintf("kill %s", victim.Name()))
			victim.Kill()
		})
	}
	for i, limit := range l.windows {
		e.RunUntil(limit)
		record("window")
		e.Schedule(l.hostCB[i], callback("host-cb"))
	}
	e.Run()
	r.executed, r.seq, r.now, r.resumes = e.ExecutedEvents(), e.seq, e.Now(), e.resumes
	return r
}

// TestSleepInlineMatchesSwitch runs seeded mixes of sleeps (zero,
// short, wheel-wide and past the horizon), yields, same-cycle
// callbacks, signal waits and notifies, resource holds contended by
// processes and hardware, callback chains that end in a wake-up,
// spawned children (joined or killed), kills
// and RunUntil windows twice: with Process.Sleep and with the
// reference that always parks. The per-step logs, executed events,
// sequence numbers and final times must be equal.
func TestSleepInlineMatchesSwitch(t *testing.T) {
	var inline, switched uint64
	for seed := uint64(1); seed <= 300; seed++ {
		l := newSleepLoad(seed)
		got := l.run((*Process).Sleep)
		want := l.run(refSleep)
		if got.executed != want.executed || got.seq != want.seq || got.now != want.now {
			t.Fatalf("seed %d: executed/seq/now = %d/%d/%d, want %d/%d/%d",
				seed, got.executed, got.seq, got.now, want.executed, want.seq, want.now)
		}
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %d: logs differ\n got: %v\nwant: %v", seed, got.log, want.log)
		}
		inline += got.resumes
		switched += want.resumes
	}
	if inline >= switched {
		t.Fatalf("inline sleeps took %d resumes, the reference %d: no Sleep ran inline", inline, switched)
	}
}

// TestLoneSleeperResumesOnce: with nothing else queued, every wake-up
// is the next event, so N Sleeps after the start event take no
// coroutine switch, yet still count as N executed events.
func TestLoneSleeperResumesOnce(t *testing.T) {
	const n = 1000
	rng := NewRand(7)
	ds := make([]Time, n)
	var want Time
	for i := range ds {
		ds[i] = sleepDelay(rng)
		want += ds[i]
	}
	e := NewEngine()
	e.Spawn("sleeper", func(p *Process) {
		for _, d := range ds {
			p.Sleep(d)
		}
	})
	if end := e.Run(); end != want {
		t.Fatalf("final time = %d, want %d", end, want)
	}
	if e.resumes != 1 {
		t.Fatalf("resumes = %d, want 1 (the start event)", e.resumes)
	}
	if got := e.ExecutedEvents(); got != n+1 {
		t.Fatalf("executed = %d, want %d", got, n+1)
	}
}

// TestSleepAcrossRunUntilLimit: a Sleep that would end past the active
// RunUntil limit parks, and resumes at its own cycle in a later run
// call; one that ends within the limit runs inline.
func TestSleepAcrossRunUntilLimit(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(10)
		woke = append(woke, p.Now())
		p.Sleep(50)
		woke = append(woke, p.Now())
	})
	check := func(limit Time, want []Time, resumes uint64) {
		t.Helper()
		if now := e.RunUntil(limit); now != limit {
			t.Fatalf("RunUntil(%d) = %d", limit, now)
		}
		if !reflect.DeepEqual(woke, want) || e.resumes != resumes {
			t.Fatalf("after RunUntil(%d): woke %v, resumes %d; want %v, %d", limit, woke, e.resumes, want, resumes)
		}
	}
	check(30, []Time{10}, 1)
	if e.queue.len() == 0 {
		t.Fatal("the wake-up at 60 must stay queued")
	}
	check(59, []Time{10}, 1)
	check(100, []Time{10, 60}, 2)
	if got := e.ExecutedEvents(); got != 3 {
		t.Fatalf("executed = %d, want 3", got)
	}
}
