package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// refQueue is the reference a Station is checked against: an
// unbounded FIFO whose receivers are spawned processes parked on a
// Signal.
type refQueue[T any] struct {
	items []T
	avail *Signal
}

func newRefQueue[T any](eng *Engine) *refQueue[T] {
	return &refQueue[T]{avail: NewSignal(eng)}
}

func (q *refQueue[T]) Send(item T) {
	q.items = append(q.items, item)
	q.avail.Notify()
}

func (q *refQueue[T]) Recv(p *Process) T {
	for len(q.items) == 0 {
		q.avail.Wait(p)
	}
	item := q.items[0]
	q.items = q.items[1:]
	if len(q.items) > 0 {
		q.avail.Notify()
	}
	return item
}

// stationLoad is one seeded request stream: producers put requests
// after random gaps, and every request is served in two timed steps
// around a contended resource.
type stationLoad struct {
	workers, units int
	// gaps[i] lists producer i's sleeps before each of its puts.
	gaps [][]Time
	// pre and post are the service steps of request id before and
	// after taking a resource unit.
	pre, post []Time
}

func newStationLoad(seed uint64) stationLoad {
	rng := NewRand(seed)
	l := stationLoad{workers: 1 + rng.Intn(8), units: 1 + rng.Intn(3)}
	id := 0
	for i := 0; i < 1+rng.Intn(5); i++ {
		var gaps []Time
		for j := 0; j < rng.Intn(40); j++ {
			gaps = append(gaps, Time(rng.Intn(6)*rng.Intn(6)))
			l.pre = append(l.pre, Time(rng.Intn(12)))
			l.post = append(l.post, Time(rng.Intn(4)))
			id++
		}
		l.gaps = append(l.gaps, gaps)
	}
	return l
}

// produce spawns the producers; put receives each request id.
func (l stationLoad) produce(e *Engine, put func(id int)) {
	id := 0
	for _, gaps := range l.gaps {
		first := id
		id += len(gaps)
		e.Spawn("producer", func(p *Process) {
			for j, g := range gaps {
				p.Sleep(g)
				put(first + j)
			}
		})
	}
}

// runRef serves the load with spawned worker loops on a refQueue.
func (l stationLoad) runRef() (log []string, events uint64, end Time) {
	e := NewEngine()
	q := newRefQueue[int](e)
	r := NewResource(e, l.units)
	for w := 0; w < l.workers; w++ {
		e.Spawn("worker", func(p *Process) {
			p.SetDaemon()
			for {
				id := q.Recv(p)
				log = append(log, fmt.Sprintf("%d: w%d takes %d", e.Now(), w, id))
				p.Sleep(l.pre[id])
				r.Acquire(p, 1)
				p.Sleep(l.post[id])
				r.Release(1)
			}
		})
	}
	l.produce(e, q.Send)
	end = e.Run()
	return log, e.ExecutedEvents(), end
}

// runStation serves the load with a Station and AcquireThen.
func (l stationLoad) runStation() (log []string, events uint64, end Time) {
	e := NewEngine()
	r := NewResource(e, l.units)
	var st *Station[int]
	st = NewStation(e, l.workers, func(w, id int) {
		log = append(log, fmt.Sprintf("%d: w%d takes %d", e.Now(), w, id))
		e.Schedule(l.pre[id], func() {
			r.AcquireThen(nil, 1, func() {
				e.Schedule(l.post[id], func() {
					r.Release(1)
					st.Done(w)
				})
			})
		})
	})
	l.produce(e, st.Put)
	end = e.Run()
	return log, e.ExecutedEvents(), end
}

// TestStationMatchesProcessWorkers: a Station with callback handlers
// schedules event for event what n spawned receiver loops on a queue
// did — same service order, same executed-event count, same end time —
// including the spurious wake-ups of workers that find the queue
// already drained.
func TestStationMatchesProcessWorkers(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		l := newStationLoad(seed)
		refLog, refEvents, refEnd := l.runRef()
		log, events, end := l.runStation()
		if !reflect.DeepEqual(log, refLog) || events != refEvents || end != refEnd {
			t.Fatalf("seed %d (%d workers, %d units): station ran %d events to %d, reference %d to %d\nstation:   %v\nreference: %v",
				seed, l.workers, l.units, events, end, refEvents, refEnd, log, refLog)
		}
	}
}

func TestStationFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	var st *Station[int]
	st = NewStation(e, 1, func(w, v int) {
		got = append(got, v)
		e.Schedule(3, func() { st.Done(w) })
	})
	e.Spawn("send", func(p *Process) {
		p.Sleep(5)
		st.Put(1)
		st.Put(2)
		p.Sleep(5)
		st.Put(3)
	})
	e.Run()
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStationMultipleWorkers(t *testing.T) {
	e := NewEngine()
	var st *Station[int]
	var served []string
	st = NewStation(e, 3, func(w, v int) {
		served = append(served, fmt.Sprintf("w%d:%d@%d", w, v, e.Now()))
		e.Schedule(10, func() { st.Done(w) })
	})
	e.Spawn("send", func(p *Process) {
		p.Sleep(1)
		st.Put(1)
		st.Put(2)
		st.Put(3)
		st.Put(4)
	})
	e.Run()
	// Three idle workers take the burst in the order they went idle;
	// the fourth request waits for the first worker to finish.
	want := []string{"w0:1@1", "w1:2@1", "w2:3@1", "w0:4@11"}
	if !reflect.DeepEqual(served, want) {
		t.Fatalf("served %v, want %v", served, want)
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("live processes = %d, want 0: workers are not processes", e.LiveProcesses())
	}
}

// TestStationSteadyStateAllocatesNothing: requests flowing through a
// warm station reuse its queues and the workers' wake-ups.
func TestStationSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var st *Station[int]
	done := make([]func(), 4)
	st = NewStation(e, len(done), func(w, _ int) { e.Schedule(2, done[w]) })
	for w := range done {
		done[w] = func() { st.Done(w) }
	}
	burst := func() {
		for i := 0; i < 16; i++ {
			st.Put(i)
		}
		e.Run()
	}
	// Warm up past one turn of the calendar wheel, whose buckets
	// allocate their backing arrays on first use.
	for i := 0; i < 300; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("a burst through a warm station allocates %.0f objects, want 0", allocs)
	}
}

// TestAcquireThenSharesFIFO: processes and continuations queue in one
// FIFO; a continuation whose owner died while queued is skipped, and
// its unit passes to the next waiter.
func TestAcquireThenSharesFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []string
	victim := e.Spawn("victim", func(p *Process) { p.Sleep(1000) })
	e.Spawn("holder", func(p *Process) {
		r.Acquire(p, 1)
		e.Schedule(1, func() {
			r.AcquireThen(victim, 1, func() { order = append(order, "victim") })
			r.AcquireThen(nil, 1, func() {
				order = append(order, fmt.Sprintf("hw@%d", e.Now()))
				r.Release(1)
			})
		})
		p.Sleep(2)
		e.Spawn("proc", func(p *Process) {
			r.Acquire(p, 1)
			order = append(order, fmt.Sprintf("proc@%d", e.Now()))
			r.Release(1)
		})
		e.Schedule(5, victim.Kill)
		p.Sleep(10)
		r.Release(1)
	})
	e.Run()
	if want := []string{"hw@12", "proc@12"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("in use %d, queued %d; want 0, 0", r.InUse(), r.QueueLen())
	}
}

// TestAcquireThenImmediateGrantRunsInline: a free unit with nobody
// queued runs the continuation at once, without an event.
func TestAcquireThenImmediateGrantRunsInline(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	ran := false
	r.AcquireThen(nil, 1, func() { ran = true })
	if !ran || e.queue.len() != 0 {
		t.Fatalf("ran = %v, queued = %d; want an inline grant", ran, e.queue.len())
	}
}
