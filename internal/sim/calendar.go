package sim

import (
	"container/heap"
	"math/bits"
)

// calendarQueue is an O(1)-amortized calendar queue specialized for a
// cycle-granular DES: a timing wheel of one-cycle buckets for the near
// future plus an overflow heap for events beyond the wheel's horizon.
//
// Why a one-cycle bucket width removes all sorting: the engine assigns
// sequence numbers monotonically at Schedule time, and an event is only
// ever scheduled at or after the current time — so for any single
// future cycle, events arrive in ascending seq order. With exactly one
// cycle per bucket, plain append and front-to-back drain IS (at, seq)
// order; no comparisons ever happen on the hot path. The overflow heap
// only sees far-future events (retry timeouts, deadlines), which are
// rare relative to the hop-latency traffic that dominates the queue.
//
// Invariants:
//   - every wheel-resident event has at in [cur, cur+wheelSize), so a
//     bucket holds events of exactly one cycle;
//   - every overflow event has at >= cur+wheelSize (migrate restores
//     this whenever cur advances), so the wheel always holds the global
//     minimum while it is non-empty;
//   - overflow events migrate in heap (at, seq) order, and migration
//     for a cycle completes before the first direct push to that cycle
//     can happen (a direct push requires the cycle to be inside the
//     window, and the window only grows when cur advances, which
//     triggers migration) — so bucket append order stays seq order;
//   - bit i of occ is set exactly when bucket i is non-empty, so the
//     next occupied cycle is found a 64-bucket word at a time instead
//     of by walking empty one-cycle buckets;
//   - cur advances in pop, to the at of the event being popped, and in
//     advance, to a cycle before which nothing is queued. peek never
//     commits a cursor move: between two engine run calls the host may
//     legally schedule earlier than the last peeked time, and those
//     pushes must still land inside the scanned window.
type calendarQueue struct {
	buckets [wheelSize]cqBucket
	occ     [occWords]uint64
	// cur is the earliest cycle that may still hold events: the at of
	// the most recently popped event (pushes are never earlier).
	cur Time
	// inWheel counts wheel-resident events; size counts all.
	inWheel int
	size    int
	far     eventHeap
}

const (
	wheelBits = 11 // 2048 one-cycle buckets; DTU timeouts (2000+) overflow
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// cqBucket drains front-to-back so same-cycle events stay FIFO (= seq
// order); the backing array is reused once drained.
type cqBucket struct {
	evs  []*event
	head int
}

func (c *calendarQueue) push(ev *event) {
	if ev.at >= c.cur+wheelSize {
		heap.Push(&c.far, ev)
	} else {
		c.insert(ev)
	}
	c.size++
}

// insert appends ev to its wheel bucket and marks the bucket occupied.
func (c *calendarQueue) insert(ev *event) {
	i := ev.at & wheelMask
	b := &c.buckets[i]
	b.evs = append(b.evs, ev)
	c.occ[i>>6] |= 1 << (i & 63)
	c.inWheel++
}

// next returns the earliest occupied wheel cycle. It requires
// inWheel > 0; the window invariant puts the cycle within wheelSize of
// cur, so the scan starts at cur's bucket and wraps around the wheel
// at most once.
func (c *calendarQueue) next() Time {
	start := int(c.cur & wheelMask)
	w := start >> 6
	word := c.occ[w] &^ (uint64(1)<<(start&63) - 1)
	// Visit cur's word (from cur's bit), the other words, then cur's
	// word again for the buckets below cur's bit: the far end of the
	// window.
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			idx := w<<6 | bits.TrailingZeros64(word)
			return c.cur + Time((idx-start)&wheelMask)
		}
		w = (w + 1) % occWords
		word = c.occ[w]
	}
	panic("sim: calendar queue window invariant violated")
}

func (c *calendarQueue) pop() *event {
	if c.size == 0 {
		return nil
	}
	if c.inWheel == 0 {
		// Idle gap: jump straight to the overflow minimum.
		c.cur = c.far[0].at
		c.migrate()
	}
	if cyc := c.next(); cyc != c.cur {
		c.cur = cyc
		c.migrate()
	}
	i := c.cur & wheelMask
	b := &c.buckets[i]
	ev := b.evs[b.head]
	b.evs[b.head] = nil
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		c.occ[i>>6] &^= 1 << (i & 63)
	}
	c.inWheel--
	c.size--
	return ev
}

func (c *calendarQueue) peek() *event {
	if c.size == 0 {
		return nil
	}
	if c.inWheel == 0 {
		return c.far[0]
	}
	b := &c.buckets[c.next()&wheelMask]
	return b.evs[b.head]
}

// dueBy reports whether any queued event is due at or before t, for
// t >= cur. Unlike peek it never scans past t: it tests the occupancy
// bits of [cur, t] only, answers from the overflow minimum when the
// wheel is empty, and answers true at once when t lies beyond the
// window and the wheel holds events.
func (c *calendarQueue) dueBy(t Time) bool {
	if c.inWheel == 0 {
		return len(c.far) > 0 && c.far[0].at <= t
	}
	if t-c.cur >= wheelSize {
		return true
	}
	// Overflow events lie beyond the window, so past t: test the
	// n buckets of [cur, t] a word at a time.
	i, n := int(c.cur&wheelMask), int(t-c.cur)+1
	for n > 0 {
		word := c.occ[i>>6] >> (i & 63)
		span := 64 - i&63
		if n < span {
			word &= 1<<n - 1
			span = n
		}
		if word != 0 {
			return true
		}
		n -= span
		i = (i + span) & wheelMask
	}
	return false
}

// advance moves the cursor to t, which must have nothing queued at or
// before it (dueBy(t) is false), and migrates the overflow events the
// wider window now holds: the state pop leaves after taking an event
// at t.
func (c *calendarQueue) advance(t Time) {
	c.cur = t
	c.migrate()
}

// migrate pulls overflow events that now fit the window into their
// buckets, in (at, seq) heap order so bucket FIFO order is preserved.
func (c *calendarQueue) migrate() {
	for len(c.far) > 0 && c.far[0].at < c.cur+wheelSize {
		c.insert(heap.Pop(&c.far).(*event))
	}
}

func (c *calendarQueue) len() int { return c.size }

// eventHeap is a min-heap ordered by (at, seq): the calendar queue's
// overflow for events beyond the wheel's horizon.
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
