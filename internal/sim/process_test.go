package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestProcessPanicReachesRunCaller: a panic in a process function
// reaches the caller of Run. Its coroutine is done and never reused: a
// later Spawn on the same engine runs normally.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	type boom struct{ at Time }
	e := NewEngine()
	crasher := e.Spawn("crasher", func(p *Process) {
		p.Sleep(7)
		panic(boom{at: p.Now()})
	})
	run := func() (recovered any) {
		defer func() { recovered = recover() }()
		e.Run()
		return nil
	}
	if got, ok := run().(boom); !ok || got.at != 7 {
		t.Fatalf("recovered %#v, want boom{at: 7}", got)
	}
	if !crasher.Dead() || e.LiveProcesses() != 0 {
		t.Fatalf("crasher dead %v, live %d; want true, 0", crasher.Dead(), e.LiveProcesses())
	}
	var ranAt Time
	e.Spawn("after", func(p *Process) {
		p.Sleep(3)
		ranAt = p.Now()
	})
	if r := run(); r != nil {
		t.Fatalf("the run after the panic panicked: %v", r)
	}
	if ranAt != 10 || e.Deadlocked() {
		t.Fatalf("later process ran at %d, deadlocked %v; want 10, false", ranAt, e.Deadlocked())
	}
}

func TestKillParkedProcess(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	res := NewResource(e, 1)
	var log []string
	record := func(s string) { log = append(log, s) }

	// Each victim parks ahead of a survivor on the same wake source.
	waitSig := func(name string) *Process {
		return e.Spawn(name, func(p *Process) {
			sig.Wait(p)
			record(name)
		})
	}
	notifyVictim := waitSig("notify-victim")
	waitSig("notify-survivor")
	acquire := func(name string) *Process {
		return e.Spawn(name, func(p *Process) {
			p.Sleep(1)
			res.Acquire(p, 1)
			record(name)
			res.Release(1)
		})
	}
	var grantVictim *Process
	e.Spawn("holder", func(p *Process) {
		res.Acquire(p, 1)
		p.Sleep(30)
		res.Release(1)
		// The grant is scheduled but not yet delivered: the corpse
		// must hand the unit on to the next waiter.
		grantVictim.Kill()
	})
	grantVictim = acquire("grant-victim")
	queueVictim := acquire("queue-victim")
	acquire("acquire-survivor")

	var joinedAt Time
	e.Spawn("joiner", func(p *Process) {
		p.Join(notifyVictim)
		joinedAt = p.Now()
	})

	e.Schedule(10, func() {
		live := e.LiveProcesses()
		notifyVictim.Kill()
		queueVictim.Kill()
		if got := e.LiveProcesses(); got != live-2 {
			t.Errorf("live processes after two kills = %d, want %d", got, live-2)
		}
		if !notifyVictim.Dead() || !notifyVictim.Killed() {
			t.Error("killed process must report Dead and Killed")
		}
		notifyVictim.Kill() // already dead: no-op
	})
	e.Schedule(20, sig.Notify)
	var broadcastVictim *Process
	e.Schedule(21, func() {
		broadcastVictim = waitSig("broadcast-victim")
		waitSig("broadcast-survivor")
	})
	e.Schedule(22, func() { broadcastVictim.Kill() })
	e.Schedule(23, sig.Broadcast)

	e.Run()
	want := []string{"notify-survivor", "broadcast-survivor", "acquire-survivor"}
	if len(log) != len(want) {
		t.Fatalf("ran %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("ran %v, want %v", log, want)
		}
	}
	if joinedAt != 10 {
		t.Fatalf("joiner woke at %d, want 10 (the kill)", joinedAt)
	}
	if n := e.LiveProcesses(); n != 0 {
		t.Fatalf("live processes = %d, want 0", n)
	}
	if e.Deadlocked() {
		t.Fatal("killed processes must not count as deadlocked")
	}
	if res.InUse() != 0 || res.QueueLen() != 0 {
		t.Fatalf("resource in use %d, queued %d; want 0, 0", res.InUse(), res.QueueLen())
	}
}

func TestKillRunningProcessPanics(t *testing.T) {
	e := NewEngine()
	var recovered any
	e.Spawn("suicide", func(p *Process) {
		defer func() { recovered = recover() }()
		p.Kill()
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Kill of the running process must panic")
	}
}

func TestSleepRoundTripAllocatesNothing(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("sleeper", func(p *Process) {
		for {
			p.Sleep(1)
		}
	})
	// Each RunUntil reaches exactly the sleeper's next wake-up, so its
	// next Sleep ends past the limit and parks: every call is a real
	// round trip, the wake-up event and two coroutine switches. Warm
	// up: start the process and touch every calendar bucket once, so
	// the measurement sees only the steady state.
	round := func() { e.RunUntil(e.Now() + 1) }
	for i := 0; i < wheelSize+1; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(1000, round)
	p.Kill()
	if allocs != 0 {
		t.Fatalf("Sleep round trip allocates %v times, want 0", allocs)
	}
}

// TestSpawnAllocs: once the engine holds an idle coroutine, a
// spawn-and-join round allocates the Process, its wake closure and the
// caller's closure, and no coroutine. The child runs and returns
// before the parent's Join, which then returns at once.
func TestSpawnAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Spawn("parent", func(p *Process) {
		for {
			child := e.Spawn("child", func(c *Process) { n++ })
			p.Sleep(1)
			p.Join(child)
		}
	})
	// Each RunUntil reaches the parent's next wake-up: one round.
	round := func() { e.RunUntil(e.Now() + 1) }
	for i := 0; i < wheelSize+1; i++ {
		round()
	}
	n0 := n
	allocs := testing.AllocsPerRun(1000, round)
	if n-n0 != 1001 {
		t.Fatalf("%d children ran in 1001 rounds, want one a round", n-n0)
	}
	if allocs > 3 {
		t.Fatalf("a spawn-and-join round allocates %v times, want <= 3", allocs)
	}
}

// TestSpawnReusesFinishedCoroutine: a process spawned after another
// returned runs its own function on the finished one's coroutine.
func TestSpawnReusesFinishedCoroutine(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("parent", func(p *Process) {
		first := e.Spawn("first", func(c *Process) {
			c.Sleep(5)
			log = append(log, "first")
		})
		co := first.co
		p.Join(first)
		second := e.Spawn("second", func(c *Process) { log = append(log, "second") })
		if second.co != co {
			t.Error("the second child got a new coroutine, want the first one's")
		}
		p.Join(second)
	})
	e.Run()
	if strings.Join(log, ",") != "first,second" {
		t.Fatalf("log %v, want [first second]", log)
	}
}

// TestKilledParkedCoroutineNotReused: a process killed while parked
// never runs again, and its coroutine serves no later Spawn.
func TestKilledParkedCoroutineNotReused(t *testing.T) {
	e := NewEngine()
	var log []string
	victim := e.Spawn("victim", func(p *Process) {
		p.Sleep(10)
		log = append(log, "victim woke")
	})
	co := victim.co
	e.Schedule(5, func() {
		victim.Kill()
		e.Schedule(0, func() {
			next := e.Spawn("next", func(p *Process) {
				p.Sleep(20)
				log = append(log, "next")
			})
			if next.co == co {
				t.Error("the next Spawn got the killed process's coroutine")
			}
		})
	})
	e.Run()
	if strings.Join(log, ",") != "next" {
		t.Fatalf("log %v, want [next]", log)
	}
	if e.LiveProcesses() != 0 || e.Deadlocked() {
		t.Fatalf("live %d, deadlocked %v; want 0, false", e.LiveProcesses(), e.Deadlocked())
	}
}

// TestKillBeforeStartReturnsCoroutine: a process killed before its
// start never runs its function, and its coroutine serves the next
// Spawn.
func TestKillBeforeStartReturnsCoroutine(t *testing.T) {
	e := NewEngine()
	var log []string
	victim := e.Spawn("victim", func(p *Process) { log = append(log, "victim") })
	co := victim.co
	victim.Kill()
	next := e.Spawn("next", func(p *Process) { log = append(log, "next") })
	if next.co != co {
		t.Error("the next Spawn got a new coroutine, want the killed process's")
	}
	e.Run()
	if strings.Join(log, ",") != "next" || !victim.Killed() {
		t.Fatalf("log %v, victim killed %v; want [next], true", log, victim.Killed())
	}
}

// TestRunStopsIdleCoroutines: once a run call has drained the queue,
// no goroutine of a finished process is left; only a process parked
// forever keeps its own.
func TestRunStopsIdleCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	sig := NewSignal(e)
	e.Spawn("daemon", func(p *Process) {
		p.SetDaemon()
		sig.Wait(p)
	})
	for i := 0; i < 8; i++ {
		e.Spawn("worker", func(p *Process) {
			for j := 0; j < 4; j++ {
				p.Join(e.Spawn("child", func(c *Process) { c.Sleep(Time(j)) }))
			}
		})
	}
	// An event past the workers' end keeps the queue non-empty, so the
	// finished workers' and children's coroutines stay idle.
	e.Schedule(100, func() {})
	e.RunUntil(50)
	if e.idle == nil || runtime.NumGoroutine()-before <= 1 {
		t.Fatal("no coroutine idle mid-run; the test measures nothing")
	}
	e.Run()
	if got := runtime.NumGoroutine() - before; got > 1 {
		t.Fatalf("%d goroutines left after the run, want at most 1 (the daemon's)", got)
	}
	e.Spawn("late", func(p *Process) {})
	e.RunUntil(e.Now() + 10)
	if got := runtime.NumGoroutine() - before; got > 1 || e.idle != nil {
		t.Fatalf("a RunUntil that left the queue empty kept %d goroutines, want at most 1", got)
	}
}
