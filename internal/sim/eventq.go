package sim

import "container/heap"

// eventQueue is the engine's pending-event store. Both implementations
// yield events in exactly the same total order — ascending (at, seq) —
// so a run's schedule is independent of the queue chosen; the
// differential test harness (internal/bench TestEngineEquivalence,
// FuzzEventQueue here) holds them to that contract byte-for-byte.
type eventQueue interface {
	// push inserts ev. ev.at must be >= the at of every event popped
	// so far (the engine never schedules into the past).
	push(ev *event)
	// pop removes and returns the minimum (at, seq) event, or nil when
	// empty.
	pop() *event
	// peek returns the minimum (at, seq) event without removing it, or
	// nil when empty.
	peek() *event
	// len returns the number of queued events.
	len() int
}

// eventHeap is a min-heap ordered by (at, seq): the original engine
// queue, kept behind Config{Queue: QueueHeap} as the reference
// implementation for differential testing of the calendar queue.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue adapts eventHeap to the eventQueue interface.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) len() int { return len(q.h) }
