package sim

import "fmt"

// Resource is a counting semaphore with FIFO admission, used to model
// contended hardware: a DRAM port, a NoC link, a DTU transfer engine.
// Acquire blocks until the requested units are available; requests are
// granted strictly in arrival order (no overtaking), which models a
// fair hardware arbiter.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []resWaiter

	// busyCycles accumulates capacity-weighted busy time for
	// utilisation statistics.
	busyCycles   Time
	lastChange   Time
	totalGrants  uint64
	totalWaitFor Time
}

type resWaiter struct {
	p     *Process
	n     int
	since Time
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
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.grant(n, 0)
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n, since: r.eng.now})
	p.park()
}

// Release returns n units and admits as many FIFO waiters as now fit.
func (r *Resource) Release(n int) {
	r.accumulate()
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if w.p.dead {
			// The waiter was killed (PE crash) while queued; it must
			// not consume capacity the survivors need.
			r.waiters = r.waiters[1:]
			continue
		}
		if r.inUse+w.n > r.capacity {
			break // strict FIFO: nobody overtakes the head waiter
		}
		r.waiters = r.waiters[1:]
		r.grant(w.n, r.eng.now-w.since)
		wp, wn := w.p, w.n
		r.eng.Schedule(0, func() {
			if wp.dead {
				// Killed between grant and wake-up: return the units,
				// which also re-runs admission for later waiters.
				r.Release(wn)
				return
			}
			r.eng.resume(wp)
		})
	}
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
func (r *Resource) QueueLen() int { return len(r.waiters) }

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
