package sim

// Station is a bank of n hardware workers serving one FIFO of
// requests as event callbacks: a DTU's request server, a memory
// tile's DRAM-port workers. Put never blocks; an idle worker is woken
// by an event, runs the handler, and reports completion with Done,
// which takes the next request or returns the worker to the idle
// FIFO. Requests are served in Put order, idle workers in the order
// they went idle.
//
// A Station schedules event for event what n spawned receiver loops on
// a FIFO queue would: each worker's first "become idle" event at
// construction (a spawned loop's start event), one wake-up per
// notified worker, and Done running inline where a loop would go back
// to its receive. Hardware can thus move between the two forms without
// changing any schedule or executed-event count.
type Station[T any] struct {
	eng    *Engine
	handle func(w int, item T)
	items  FIFO[T]
	// idle lists the parked workers, oldest first.
	idle FIFO[int]
	// wakes[w] resumes worker w; built once per worker.
	wakes []func()
}

// NewStation returns a station of n workers that serve each request
// with handle(w, item), w being the worker's index in [0, n). handle
// runs in engine context and must not block; it starts the request's
// timed work (port admission, a NoC send) with continuations and calls
// Done(w) from the last of them.
func NewStation[T any](eng *Engine, n int, handle func(w int, item T)) *Station[T] {
	if n <= 0 {
		panic("sim: station needs at least one worker")
	}
	s := &Station[T]{eng: eng, handle: handle, wakes: make([]func(), n)}
	for w := range s.wakes {
		s.wakes[w] = func() { s.next(w) }
		eng.Schedule(0, s.wakes[w])
	}
	return s
}

// Put queues item and wakes the oldest idle worker, if any. Safe to
// call from callbacks and processes.
func (s *Station[T]) Put(item T) {
	s.items.Push(item)
	s.notify()
}

// Done reports that worker w finished its request: it takes the next
// queued request inline or goes idle.
func (s *Station[T]) Done(w int) { s.next(w) }

// notify schedules the wake-up of the oldest idle worker.
func (s *Station[T]) notify() {
	if s.idle.Len() > 0 {
		s.eng.Schedule(0, s.wakes[s.idle.Pop()])
	}
}

// next hands worker w the oldest request, or parks it when there is
// none. While requests remain behind the taken one it wakes another
// worker, so a burst of Puts fans out over the idle workers.
func (s *Station[T]) next(w int) {
	if s.items.Len() == 0 {
		s.idle.Push(w)
		return
	}
	item := s.items.Pop()
	if s.items.Len() > 0 {
		s.notify()
	}
	s.handle(w, item)
}
