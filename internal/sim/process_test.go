package sim

import "testing"

func TestProcessPanicReachesRunCaller(t *testing.T) {
	type boom struct{ at Time }
	e := NewEngine()
	e.Spawn("crasher", func(p *Process) {
		p.Sleep(7)
		panic(boom{at: p.Now()})
	})
	defer func() {
		got, ok := recover().(boom)
		if !ok || got.at != 7 {
			t.Fatalf("recovered %#v, want boom{at: 7}", got)
		}
	}()
	e.Run()
	t.Fatal("Run returned normally after a process panicked")
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
	// Warm up: start the process and touch every calendar bucket once,
	// so the measurement sees only the steady state.
	for i := 0; i < wheelSize+1; i++ {
		e.step()
	}
	allocs := testing.AllocsPerRun(1000, e.step)
	p.Kill()
	if allocs != 0 {
		t.Fatalf("Sleep round trip allocates %v times, want 0", allocs)
	}
}
