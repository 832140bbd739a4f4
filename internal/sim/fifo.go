package sim

// FIFO is a slice-backed queue that keeps reusing its backing array:
// the queues of a simulation (Station requests and idle workers,
// Resource and Signal waiters, a DTU's arrived messages) live for the
// whole run, so a plain reslice-and-append queue would keep
// reallocating. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Front returns the oldest item; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// At least half the array is consumed: slide the live items
		// down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest item; the queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
