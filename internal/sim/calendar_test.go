package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
)

// eventQueue is the pop-order contract the calendar queue is tested
// against: both it and heapQueue yield events in ascending (at, seq)
// order, and agree on whether any event is due at or before a time.
type eventQueue interface {
	push(ev *event)
	pop() *event
	peek() *event
	len() int
	dueBy(t Time) bool
	advance(t Time)
}

// heapQueue is the reference queue: a plain binary min-heap over
// (at, seq), the engine's original event store.
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

func (q *heapQueue) dueBy(t Time) bool { return len(q.h) > 0 && q.h[0].at <= t }

// advance is a no-op: a heap has no cursor.
func (q *heapQueue) advance(Time) {}

// checkDueBy asks both queues whether an event is due at or before t
// and, when none is, advances both to t the way an inline Sleep does.
// It reports whether they advanced.
func checkDueBy(t *testing.T, cal, hp eventQueue, at Time) bool {
	t.Helper()
	got, want := cal.dueBy(at), hp.dueBy(at)
	if got != want {
		t.Fatalf("dueBy(%d) = %v, heap says %v", at, got, want)
	}
	if got {
		return false
	}
	cal.advance(at)
	hp.advance(at)
	return true
}

// drainCompare pops both queues empty, asserting identical (at, seq)
// order, and returns the number of events drained.
func drainCompare(t *testing.T, cal, hp eventQueue) int {
	t.Helper()
	n := 0
	for {
		a, b := cal.pop(), hp.pop()
		if (a == nil) != (b == nil) {
			t.Fatalf("drain %d: cal nil=%v heap nil=%v", n, a == nil, b == nil)
		}
		if a == nil {
			return n
		}
		if a.at != b.at || a.seq != b.seq {
			t.Fatalf("drain %d: cal (%d,%d) != heap (%d,%d)", n, a.at, a.seq, b.at, b.seq)
		}
		n++
	}
}

// TestCalendarMatchesHeap drives calendar and heap queues with an
// identical deterministic push/pop stream. The dense mix covers
// same-cycle ties, near-future, overflow-horizon, and far-future
// delays, plus idle gaps that exercise the overflow fast-forward path.
// The sparse mixes leave most of the wheel empty, so the occupancy
// bitmap search must skip whole words, wrap past the last word, and
// find events at the far edge of the window. Between pushes and pops
// the stream asks "any event due at or before now+d?" and, when none
// is, advances the cursor to now+d, as an inline Sleep does.
func TestCalendarMatchesHeap(t *testing.T) {
	mixes := []struct {
		name  string
		delay func(rng *rand.Rand) Time
	}{
		{"dense", func(rng *rand.Rand) Time {
			switch rng.Intn(5) {
			case 0:
				return 0 // same-cycle tie
			case 1:
				return Time(rng.Intn(16))
			case 2:
				return Time(rng.Intn(wheelSize)) // inside the wheel
			case 3:
				return Time(wheelSize - 2 + rng.Intn(8)) // straddle the horizon
			default:
				return Time(rng.Intn(20 * wheelSize)) // deep overflow
			}
		}},
		{"sparse", func(rng *rand.Rand) Time {
			return Time(1000 + rng.Intn(wheelSize-1000)) // gaps of 1000..2047
		}},
		{"edge", func(rng *rand.Rand) Time {
			switch rng.Intn(3) {
			case 0:
				return wheelMask // the last bucket of the window
			case 1:
				return Time(wheelSize - 64 + rng.Intn(64)) // the last bitmap word's span
			default:
				return Time(rng.Intn(4))
			}
		}},
	}
	for _, mix := range mixes {
		for seed := int64(0); seed < 50; seed++ {
			crossCheck(t, mix.name, seed, mix.delay)
		}
	}
}

// crossCheck runs one seeded push/pop/dueBy stream through both
// queues, comparing every pop, peek, dueBy answer and length.
func crossCheck(t *testing.T, mix string, seed int64, delay func(rng *rand.Rand) Time) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cal, hp := &calendarQueue{}, &heapQueue{}
	cal.init() // as the engine's: pre-sized buckets that outgrow their room
	var now Time
	var seq uint64
	live := 0
	for op := 0; op < 5000; op++ {
		r := rng.Intn(6)
		if r == 0 {
			if at := now + delay(rng); checkDueBy(t, cal, hp, at) {
				now = at
			}
		} else if r <= 3 || live == 0 {
			d := delay(rng)
			seq++
			cal.push(&event{at: now + d, seq: seq})
			hp.push(&event{at: now + d, seq: seq})
			live++
		} else {
			a, b := cal.pop(), hp.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("%s seed %d op %d: cal (%d,%d) != heap (%d,%d)",
					mix, seed, op, a.at, a.seq, b.at, b.seq)
			}
			now = a.at
			live--
		}
		if cal.len() != hp.len() {
			t.Fatalf("%s seed %d op %d: len %d != %d", mix, seed, op, cal.len(), hp.len())
		}
		pa, pb := cal.peek(), hp.peek()
		if (pa == nil) != (pb == nil) || (pa != nil && (pa.at != pb.at || pa.seq != pb.seq)) {
			t.Fatalf("%s seed %d op %d: peek mismatch", mix, seed, op)
		}
	}
	drainCompare(t, cal, hp)
}

// TestCalendarWrapsLastWord pins the bitmap search's wrap-around: with
// the cursor inside the last bitmap word, the next event may sit in a
// lower word (the window wrapped past bucket 2047) or in the cursor's
// own word below the cursor's bit (exactly cur+wheelMask), which only
// the second visit of that word finds.
func TestCalendarWrapsLastWord(t *testing.T) {
	c := &calendarQueue{}
	const base = Time(3*wheelSize + wheelSize - 8) // bucket 2040: last word, bit 56
	c.push(&event{at: base, seq: 1})
	if p := c.pop(); p.at != base {
		t.Fatalf("pop = %d, want %d", p.at, base)
	}
	c.push(&event{at: base + wheelMask, seq: 2}) // bucket 2039: same word, below the cursor
	if p := c.peek(); p.at != base+wheelMask || p.seq != 2 {
		t.Fatalf("peek = (%d,%d), want (%d,2)", p.at, p.seq, base+wheelMask)
	}
	c.push(&event{at: base + 20, seq: 3}) // bucket 12: first word, after the wrap
	for _, want := range []struct {
		at  Time
		seq uint64
	}{{base + 20, 3}, {base + wheelMask, 2}} {
		if p := c.peek(); p.at != want.at || p.seq != want.seq {
			t.Fatalf("peek = (%d,%d), want (%d,%d)", p.at, p.seq, want.at, want.seq)
		}
		if p := c.pop(); p.at != want.at || p.seq != want.seq {
			t.Fatalf("pop = (%d,%d), want (%d,%d)", p.at, p.seq, want.at, want.seq)
		}
	}
	if c.len() != 0 || c.occ != [occWords]uint64{} {
		t.Fatalf("drained queue: len %d, occupancy %v", c.len(), c.occ)
	}
}

// TestCalendarPeekDoesNotCommitCursor is the regression test for the
// subtle cursor bug: peeking a far event must not advance the cursor,
// because between engine run calls the host may legally schedule
// earlier than the peeked time (RunUntil bumps the clock past the last
// executed event) and those pushes must still sort first.
func TestCalendarPeekDoesNotCommitCursor(t *testing.T) {
	c := &calendarQueue{}
	c.push(&event{at: 50, seq: 1})
	if p := c.peek(); p.at != 50 {
		t.Fatalf("peek = %d, want 50", p.at)
	}
	// Host schedules earlier than the peeked event (legal: nothing at
	// 40 has been popped yet).
	c.push(&event{at: 40, seq: 2})
	if p := c.pop(); p.at != 40 || p.seq != 2 {
		t.Fatalf("pop = (%d,%d), want (40,2)", p.at, p.seq)
	}
	if p := c.pop(); p.at != 50 || p.seq != 1 {
		t.Fatalf("pop = (%d,%d), want (50,1)", p.at, p.seq)
	}
}

// TestCalendarOverflowMigrationOrder: overflow events destined for one
// cycle must land in its bucket in seq order, ahead of any later direct
// pushes to the same cycle.
func TestCalendarOverflowMigrationOrder(t *testing.T) {
	c := &calendarQueue{}
	far := Time(3 * wheelSize)
	c.push(&event{at: far, seq: 1}) // overflow
	c.push(&event{at: far, seq: 2}) // overflow, same cycle
	c.push(&event{at: 10, seq: 3})
	if p := c.pop(); p.seq != 3 {
		t.Fatalf("pop seq = %d, want 3", p.seq)
	}
	// Cursor at 10: far is still beyond the horizon. Fast-forward pop
	// migrates both, then a direct push to the same cycle must append
	// after them.
	if p := c.peek(); p.at != far || p.seq != 1 {
		t.Fatalf("peek = (%d,%d), want (%d,1)", p.at, p.seq, far)
	}
	got := []*event{c.pop()}
	c.push(&event{at: far, seq: 4}) // now inside the window: direct push
	got = append(got, c.pop(), c.pop())
	for i, want := range []uint64{1, 2, 4} {
		if got[i].seq != want {
			t.Fatalf("pop %d: seq = %d, want %d", i, got[i].seq, want)
		}
	}
	if c.len() != 0 {
		t.Fatalf("len = %d, want 0", c.len())
	}
}

// TestCalendarBucketReuse drains and refills the same cycle buckets
// repeatedly (modeling a hot simulation loop) and checks the backing
// arrays behave FIFO across reuse.
func TestCalendarBucketReuse(t *testing.T) {
	c := &calendarQueue{}
	var seq uint64
	var now Time
	for round := 0; round < 3*wheelSize; round++ {
		for i := 0; i < 3; i++ {
			seq++
			c.push(&event{at: now + 1, seq: seq})
		}
		base := seq - 2
		for i := 0; i < 3; i++ {
			p := c.pop()
			if p.seq != base+uint64(i) {
				t.Fatalf("round %d pop %d: seq = %d, want %d", round, i, p.seq, base+uint64(i))
			}
			now = p.at
		}
	}
}

// TestFirstWheelPassAllocatesNothing: a fresh engine's calendar has
// room in every bucket, so the clock's first pass over the wheel
// allocates no bucket array.
func TestFirstWheelPassAllocatesNothing(t *testing.T) {
	e := NewEngine()
	f := func() {}
	e.Schedule(1, f)
	e.Run() // the event freelist now holds the one event reused below
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*wheelSize; i++ {
		e.Schedule(1, f)
		e.Run()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("two passes over the wheel allocate %d objects, want 0", n)
	}
}

// TestCalendarEmpty covers the nil returns.
func TestCalendarEmpty(t *testing.T) {
	c := &calendarQueue{}
	if c.pop() != nil || c.peek() != nil || c.len() != 0 {
		t.Fatal("empty queue must return nil/0")
	}
	c.push(&event{at: 7, seq: 1})
	c.pop()
	if c.pop() != nil || c.peek() != nil {
		t.Fatal("drained queue must return nil")
	}
}

// FuzzEventQueue cross-checks calendar vs heap pop order on random
// (delay, op) streams — same-cycle tie-break stability included, since
// delay 0 is a reachable case — and the "due at or before t" answer
// with the cursor advance an inline Sleep makes when nothing is due.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 255, 0, 0, 9})
	f.Add([]byte{255, 254, 253, 7, 7, 7})
	f.Add([]byte{})
	// Large gaps: bytes 65..125 with b%4 == 1 push 1040..2000 cycles
	// ahead, so most pops cross a mostly empty wheel; b%4 == 2 lands on
	// the horizon.
	f.Add([]byte{65, 200, 125, 200, 101, 69, 200, 200, 121, 200})
	f.Add([]byte{125, 121, 117, 200, 113, 200, 109, 200, 105, 200, 200, 200})
	f.Add([]byte{65, 200, 126, 125, 200, 200, 66, 97, 200, 200})
	// Bytes 224..255 ask whether an event is due within 0..4247 cycles
	// and advance the cursor there when none is.
	f.Add([]byte{5, 224, 225, 229, 61, 240, 239, 200, 255, 2, 244, 200})
	f.Add([]byte{250, 40, 241, 235, 100, 231, 255, 200, 200, 226})
	f.Fuzz(func(t *testing.T, data []byte) {
		cal, hp := &calendarQueue{}, &heapQueue{}
		cal.init()
		var now Time
		var seq uint64
		live := 0
		for i := 0; i < len(data); i++ {
			b := data[i]
			if b >= 224 {
				if at := now + Time(b-224)*137; checkDueBy(t, cal, hp, at) {
					now = at
				}
			} else if b < 160 || live == 0 {
				// Push: spread the byte across the interesting delay
				// bands (ties, wheel, horizon, deep overflow).
				d := Time(b)
				switch b % 4 {
				case 1:
					d = Time(b) * 16
				case 2:
					d = Time(wheelSize-4) + Time(b%9)
				case 3:
					d = Time(b) * 97 * 41
				}
				seq++
				cal.push(&event{at: now + d, seq: seq})
				hp.push(&event{at: now + d, seq: seq})
				live++
			} else {
				a, bb := cal.pop(), hp.pop()
				if a.at != bb.at || a.seq != bb.seq {
					t.Fatalf("op %d: cal (%d,%d) != heap (%d,%d)", i, a.at, a.seq, bb.at, bb.seq)
				}
				now = a.at
				live--
			}
			pa, pb := cal.peek(), hp.peek()
			if (pa == nil) != (pb == nil) || (pa != nil && (pa.at != pb.at || pa.seq != pb.seq)) {
				t.Fatalf("op %d: peek mismatch", i)
			}
		}
		for {
			a, b := cal.pop(), hp.pop()
			if (a == nil) != (b == nil) {
				t.Fatal("drain length mismatch")
			}
			if a == nil {
				break
			}
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("drain: cal (%d,%d) != heap (%d,%d)", a.at, a.seq, b.at, b.seq)
			}
		}
	})
}
