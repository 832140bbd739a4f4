package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Schedule(10, func() {
		at = append(at, e.Now())
		e.Schedule(5, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Fatalf("nested schedule times = %v, want [10 15]", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if !e.Pending() {
		t.Fatal("expected event at t=30 still pending")
	}
	if e.Now() != 20 {
		t.Fatalf("now = %d, want 20", e.Now())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
}

// TestEventPoolHygiene: released events must carry no stale callback or
// sequence number back out of the freelist.
func TestEventPoolHygiene(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Run()
	seenFree := 0
	for ev := e.free; ev != nil; ev = ev.next {
		seenFree++
		if ev.fn != nil || ev.at != 0 || ev.seq != 0 {
			t.Fatalf("freelist event not zeroed: %+v", ev)
		}
	}
	if seenFree == 0 {
		t.Fatal("expected recycled events on the freelist")
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wake []Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(100)
		wake = append(wake, p.Now())
		p.Sleep(50)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 2 || wake[0] != 100 || wake[1] != 150 {
		t.Fatalf("wake times = %v, want [100 150]", wake)
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20) // wakes at 30
		order = append(order, "a30")
	})
	e.Spawn("b", func(p *Process) {
		p.Sleep(20)
		order = append(order, "b20")
	})
	e.Run()
	want := []string{"a10", "b20", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine()
	var joinedAt Time
	child := e.Spawn("child", func(p *Process) { p.Sleep(42) })
	e.Spawn("parent", func(p *Process) {
		p.Join(child)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != 42 {
		t.Fatalf("joined at %d, want 42", joinedAt)
	}
	if !child.Dead() {
		t.Fatal("child should be dead")
	}
}

func TestJoinDeadProcess(t *testing.T) {
	e := NewEngine()
	child := e.Spawn("child", func(p *Process) {})
	var ok bool
	e.Spawn("parent", func(p *Process) {
		p.Sleep(10) // child long dead
		p.Join(child)
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("join on dead process must not block")
	}
}

func TestLiveProcesses(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.Spawn("blocked-forever", func(p *Process) { sig.Wait(p) })
	e.Spawn("quick", func(p *Process) {})
	e.Run()
	if got := e.LiveProcesses(); got != 1 {
		t.Fatalf("live processes = %d, want 1", got)
	}
}

func TestSignalNotifyWakesFIFO(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	var order []string
	spawnWaiter := func(name string) {
		e.Spawn(name, func(p *Process) {
			sig.Wait(p)
			order = append(order, name)
		})
	}
	spawnWaiter("w1")
	spawnWaiter("w2")
	spawnWaiter("w3")
	e.Spawn("notifier", func(p *Process) {
		p.Sleep(10)
		sig.Notify()
		p.Sleep(10)
		sig.Broadcast()
	})
	e.Run()
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
	if sig.Waiters() != 0 {
		t.Fatalf("waiters = %d, want 0", sig.Waiters())
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("recv", func(p *Process) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p))
		}
	})
	e.Spawn("send", func(p *Process) {
		p.Sleep(5)
		q.Send(1)
		q.Send(2)
		p.Sleep(5)
		q.Send(3)
	})
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueMultipleReceivers(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	sum := 0
	for i := 0; i < 3; i++ {
		e.Spawn("recv", func(p *Process) { sum += q.Recv(p) })
	}
	e.Spawn("send", func(p *Process) {
		p.Sleep(1)
		q.Send(1)
		q.Send(2)
		q.Send(3)
	})
	e.Run()
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
	if q.Len() != 0 {
		t.Fatalf("queue len = %d, want 0", q.Len())
	}
}

func TestQueueTryRecv(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue must fail")
	}
	q.Send("x")
	v, ok := q.TryRecv()
	if !ok || v != "x" {
		t.Fatalf("TryRecv = %q,%v", v, ok)
	}
}

func TestResourceContention(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []string
	use := func(name string, start, hold Time) {
		e.Spawn(name, func(p *Process) {
			p.Sleep(start)
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(hold)
			r.Release(1)
			order = append(order, name+"-")
		})
	}
	use("a", 0, 100)
	use("b", 10, 10)
	use("c", 20, 10)
	e.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceFIFONoOvertake(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var order []string
	// Holder takes both units; a big request (2) arrives before a small
	// one (1). The small one must not overtake the big one.
	e.Spawn("holder", func(p *Process) {
		r.Acquire(p, 2)
		p.Sleep(100)
		r.Release(1)
		p.Sleep(100)
		r.Release(1)
	})
	e.Spawn("big", func(p *Process) {
		p.Sleep(10)
		r.Acquire(p, 2)
		order = append(order, "big")
		r.Release(2)
	})
	e.Spawn("small", func(p *Process) {
		p.Sleep(20)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small]", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	e.Spawn("u", func(p *Process) {
		r.Acquire(p, 1)
		p.Sleep(50)
		r.Release(1)
		p.Sleep(50)
	})
	e.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %f, want ~0.5", u)
	}
}

func TestEventInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for event in the past")
		}
	}()
	e := NewEngine()
	e.Schedule(10, func() {
		// Forge an event in the past: push directly into the queue,
		// bypassing Schedule's now-relative stamping. The engine must
		// panic when it pops it rather than rewind the clock.
		e.seq++
		e.queue.push(&event{at: 5, seq: e.seq})
	})
	e.Run()
}

// simRun runs a randomized but seed-determined scenario and returns a
// fingerprint of the final state.
func simRun(nProcs uint8, sleeps []uint16) (Time, uint64) {
	e := NewEngine()
	q := NewQueue[int](e)
	n := int(nProcs%8) + 1
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Process) {
			for j, s := range sleeps {
				if j%n != i {
					continue
				}
				p.Sleep(Time(s))
				q.Send(j)
				if _, ok := q.TryRecv(); !ok {
					p.Yield()
				}
			}
		})
	}
	end := e.Run()
	return end, e.ExecutedEvents()
}

func TestDeterminismProperty(t *testing.T) {
	f := func(nProcs uint8, sleeps []uint16) bool {
		t1, e1 := simRun(nProcs, sleeps)
		t2, e2 := simRun(nProcs, sleeps)
		return t1 == t2 && e1 == e2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSleepZeroRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		p.Yield()
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b")
	})
	e.Run()
	// a yields at t=0 behind b's initial event, so b runs first.
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestTracer(t *testing.T) {
	e := NewEngine()
	if e.Tracing() {
		t.Fatal("tracing on by default")
	}
	e.Emit("x", "dropped") // no tracer: no-op
	var got []string
	e.SetTracer(func(at Time, source, event string) {
		got = append(got, source+":"+event)
	})
	if !e.Tracing() {
		t.Fatal("tracer not installed")
	}
	e.Spawn("p", func(p *Process) {
		p.Sleep(5)
		e.Emit("p", "woke")
	})
	e.Run()
	if len(got) != 1 || got[0] != "p:woke" {
		t.Fatalf("trace = %v", got)
	}
}

func TestResourceAvgWaitAndQueueLen(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	e.Spawn("holder", func(p *Process) {
		r.Acquire(p, 1)
		if r.QueueLen() != 0 {
			t.Error("queue should be empty at acquire time")
		}
		p.Sleep(100)
		r.Release(1)
	})
	e.Spawn("waiter", func(p *Process) {
		p.Sleep(10)
		r.Acquire(p, 1) // waits 90 cycles
		r.Release(1)
	})
	e.Run()
	// Two grants; one waited 90 cycles -> mean 45.
	if w := r.AvgWait(); w < 44 || w > 46 {
		t.Fatalf("avg wait = %f, want ~45", w)
	}
}

func TestDeadlockDetectionAndSchedulePanic(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.Spawn("stuck", func(p *Process) { sig.Wait(p) })
	e.Run()
	if !e.Deadlocked() {
		t.Fatal("engine with a forever-parked process must report Deadlocked")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule on a deadlocked engine must panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestCleanRunStaysSchedulable(t *testing.T) {
	e := NewEngine()
	e.Spawn("worker", func(p *Process) { p.Sleep(5) })
	e.Run()
	if e.Deadlocked() {
		t.Fatal("run with no live processes must not report a deadlock")
	}
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("engine must stay usable after a clean run")
	}
}
