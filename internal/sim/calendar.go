package sim

import "container/heap"

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
//   - cur advances only in pop, to the at of the event being popped.
//     peek never commits a cursor move: between two engine run calls
//     the host may legally schedule earlier than the last peeked time,
//     and those pushes must still land inside the scanned window.
type calendarQueue struct {
	buckets [wheelSize]cqBucket
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
)

// cqBucket drains front-to-back so same-cycle events stay FIFO (= seq
// order); the backing array is reused once drained.
type cqBucket struct {
	evs  []*event
	head int
}

func newCalendarQueue() *calendarQueue { return &calendarQueue{} }

func (c *calendarQueue) push(ev *event) {
	if ev.at >= c.cur+wheelSize {
		heap.Push(&c.far, ev)
	} else {
		b := &c.buckets[ev.at&wheelMask]
		b.evs = append(b.evs, ev)
		c.inWheel++
	}
	c.size++
}

func (c *calendarQueue) pop() *event {
	if c.size == 0 {
		return nil
	}
	if c.inWheel == 0 {
		// Idle gap: jump straight to the overflow minimum instead of
		// walking empty buckets.
		c.cur = c.far[0].at
		c.migrate()
	}
	// The window invariant guarantees a hit within wheelSize buckets.
	for cyc := c.cur; ; cyc++ {
		if cyc-c.cur > wheelMask {
			panic("sim: calendar queue window invariant violated")
		}
		b := &c.buckets[cyc&wheelMask]
		if b.head == len(b.evs) {
			continue
		}
		if cyc != c.cur {
			c.cur = cyc
			c.migrate()
		}
		ev := b.evs[b.head]
		b.evs[b.head] = nil
		b.head++
		if b.head == len(b.evs) {
			b.evs = b.evs[:0]
			b.head = 0
		}
		c.inWheel--
		c.size--
		return ev
	}
}

func (c *calendarQueue) peek() *event {
	if c.size == 0 {
		return nil
	}
	if c.inWheel == 0 {
		return c.far[0]
	}
	for cyc := c.cur; ; cyc++ {
		if cyc-c.cur > wheelMask {
			panic("sim: calendar queue window invariant violated")
		}
		b := &c.buckets[cyc&wheelMask]
		if b.head < len(b.evs) {
			return b.evs[b.head]
		}
	}
}

// migrate pulls overflow events that now fit the window into their
// buckets, in (at, seq) heap order so bucket FIFO order is preserved.
func (c *calendarQueue) migrate() {
	for len(c.far) > 0 && c.far[0].at < c.cur+wheelSize {
		ev := heap.Pop(&c.far).(*event)
		b := &c.buckets[ev.at&wheelMask]
		b.evs = append(b.evs, ev)
		c.inWheel++
	}
}

func (c *calendarQueue) len() int { return c.size }
