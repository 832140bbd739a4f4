package sim

import "fmt"

// Resource is a counting semaphore with FIFO admission, used to model
// contended hardware: a DRAM port, a NoC link, a DTU transfer engine.
// Requests are granted strictly in arrival order (no overtaking),
// which models a fair hardware arbiter. A process blocks in Acquire;
// hardware modelled as event callbacks queues a continuation with
// AcquireThen. Both kinds wait in the same FIFO.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  FIFO[resWaiter]
	// grants heads the freelist of pending wake-ups.
	grants *resGrant

	// busyCycles accumulates capacity-weighted busy time for
	// utilisation statistics.
	busyCycles   Time
	lastChange   Time
	totalGrants  uint64
	totalWaitFor Time
}

// resWaiter is one queued acquirer: fn runs once the units are
// granted, unless owner (nil for hardware, which never dies) was
// killed first.
type resWaiter struct {
	owner *Process
	fn    func()
	n     int
	since Time
}

// resGrant is the pooled wake-up event of one admitted waiter; run is
// built once per object, so an admission allocates nothing.
type resGrant struct {
	w    resWaiter
	run  func()
	next *resGrant
}

// NewResource returns a resource with the given capacity (units).
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Acquire blocks p until n units are available and then takes them.
// n must not exceed the capacity.
func (r *Resource) Acquire(p *Process, n int) {
	if r.tryAcquire(n) {
		return
	}
	r.enqueue(p, n, p.wake)
	p.park()
}

// AcquireThen takes n units for owner and then runs fn: inline when
// they are free and nobody queues ahead, otherwise from the event that
// admits it. Admission is the same FIFO as Acquire's, and a waiter
// whose owner was killed before its grant is skipped the same way;
// fn then never runs. A nil owner never dies.
func (r *Resource) AcquireThen(owner *Process, n int, fn func()) {
	if r.tryAcquire(n) {
		fn()
		return
	}
	r.enqueue(owner, n, fn)
}

// tryAcquire takes n units if they are free and nobody queues ahead.
func (r *Resource) tryAcquire(n int) bool {
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.grant(n, 0)
		return true
	}
	return false
}

func (r *Resource) enqueue(owner *Process, n int, fn func()) {
	r.waiters.Push(resWaiter{owner: owner, fn: fn, n: n, since: r.eng.now})
}

// Release returns n units and admits as many FIFO waiters as now fit.
func (r *Resource) Release(n int) {
	r.accumulate()
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
	for r.waiters.Len() > 0 {
		w := r.waiters.Front()
		if w.owner != nil && w.owner.dead {
			// The waiter was killed (PE crash) while queued; it must
			// not consume capacity the survivors need.
			r.waiters.Pop()
			continue
		}
		if r.inUse+w.n > r.capacity {
			break // strict FIFO: nobody overtakes the head waiter
		}
		r.waiters.Pop()
		r.grant(w.n, r.eng.now-w.since)
		g := r.grants
		if g == nil {
			g = &resGrant{}
			g.run = func() { r.wake(g) }
		} else {
			r.grants = g.next
		}
		g.w = w
		r.eng.Schedule(0, g.run)
	}
}

// wake runs an admitted waiter's continuation and recycles g.
func (r *Resource) wake(g *resGrant) {
	w := g.w
	g.w, g.next = resWaiter{}, r.grants
	r.grants = g
	if w.owner != nil && w.owner.dead {
		// Killed between grant and wake-up: return the units, which
		// also re-runs admission for later waiters.
		r.Release(w.n)
		return
	}
	w.fn()
}

func (r *Resource) grant(n int, waited Time) {
	r.accumulate()
	r.inUse += n
	r.totalGrants++
	r.totalWaitFor += waited
}

func (r *Resource) accumulate() {
	r.busyCycles += Time(r.inUse) * (r.eng.now - r.lastChange)
	r.lastChange = r.eng.now
}

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the total units of the resource.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen returns the number of blocked acquirers.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Utilization returns average held units divided by capacity over the
// simulation so far.
func (r *Resource) Utilization() float64 {
	r.accumulate()
	if r.eng.now == 0 {
		return 0
	}
	return float64(r.busyCycles) / (float64(r.capacity) * float64(r.eng.now))
}

// AvgWait returns the mean cycles an acquirer spent queued before its
// grant.
func (r *Resource) AvgWait() float64 {
	if r.totalGrants == 0 {
		return 0
	}
	return float64(r.totalWaitFor) / float64(r.totalGrants)
}
