package sim

// fifo is a slice-backed FIFO that keeps reusing its backing array:
// the hardware queues (Station requests and idle workers, Resource
// waiters) run for the whole simulation, so a plain reslice-and-append
// queue would keep reallocating.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest item; the queue must not be empty.
func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// At least half the array is consumed: slide the live items
		// down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest item; the queue must not be
// empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
