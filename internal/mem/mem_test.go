package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSPMReadWrite(t *testing.T) {
	s := NewSPM(1024)
	if s.Size() != 1024 {
		t.Fatalf("size = %d", s.Size())
	}
	in := []byte("hello scratchpad")
	if err := s.Write(100, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := s.Read(100, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("got %q, want %q", out, in)
	}
}

func TestSPMBounds(t *testing.T) {
	s := NewSPM(64)
	cases := []struct {
		addr, n int
	}{
		{-1, 4}, {60, 8}, {64, 1}, {0, 65},
	}
	for _, c := range cases {
		if err := s.Write(c.addr, make([]byte, c.n)); err == nil {
			t.Fatalf("write at %d len %d should fail", c.addr, c.n)
		}
		if err := s.Read(c.addr, make([]byte, c.n)); err == nil {
			t.Fatalf("read at %d len %d should fail", c.addr, c.n)
		}
	}
}

func TestSPMRoundTripProperty(t *testing.T) {
	s := NewSPM(4096)
	f := func(addr uint16, data []byte) bool {
		a := int(addr) % 2048
		if len(data) > 2048 {
			data = data[:2048]
		}
		if err := s.Write(a, data); err != nil {
			return false
		}
		out := make([]byte, len(data))
		if err := s.Read(a, out); err != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMAccessTiming(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: 1 << 20, Latency: 20})
	var done sim.Time
	if err := d.AccessThen(true, 0, []byte("payload"), func(release func()) {
		release()
		done = e.Now()
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if done != 20 {
		t.Fatalf("write took %d cycles, want 20 (latency only, untimed stream)", done)
	}
	if d.Ports().InUse() != 0 {
		t.Fatal("port still held after release")
	}
	got := make([]byte, 7)
	if err := d.Peek(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("dram contents = %q", got)
	}
}

func TestDRAMPortContention(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: 1024, Ports: 1, Latency: 10})
	var t1, t2 sim.Time
	// The first access streams for 90 cycles with the port held.
	if err := d.AccessThen(false, 0, make([]byte, 8), func(release func()) {
		e.Schedule(90, func() {
			release()
			t1 = e.Now()
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.AccessThen(false, 0, make([]byte, 8), func(release func()) {
		release()
		t2 = e.Now()
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if t1 != 100 {
		t.Fatalf("first access finished at %d, want 100", t1)
	}
	if t2 != 110 {
		t.Fatalf("second access finished at %d, want 110 (queued behind first)", t2)
	}
}

func TestDRAMTwoPortsOverlap(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: 1024, Ports: 2, Latency: 10})
	var finished []sim.Time
	for i := 0; i < 2; i++ {
		if err := d.AccessThen(false, 0, make([]byte, 8), func(release func()) {
			release()
			finished = append(finished, e.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(finished) != 2 || finished[0] != 10 || finished[1] != 10 {
		t.Fatalf("finish times = %v, want both 10", finished)
	}
}

// TestDRAMBrownoutHoldsPort: a brownout delay is paid with the port
// held, so it also delays the access queued behind.
func TestDRAMBrownoutHoldsPort(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: 1024, Ports: 1, Latency: 10})
	d.SetFaultDelay(func(now sim.Time) sim.Time {
		if now < 15 {
			return 7
		}
		return 0
	})
	var finished []sim.Time
	for i := 0; i < 2; i++ {
		if err := d.AccessThen(true, 0, make([]byte, 8), func(release func()) {
			release()
			finished = append(finished, e.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(finished) != 2 || finished[0] != 17 || finished[1] != 27 {
		t.Fatalf("finish times = %v, want [17 27]", finished)
	}
	if d.BrownoutCycles != 7 {
		t.Fatalf("brownout cycles = %d, want 7", d.BrownoutCycles)
	}
}

func TestDRAMBounds(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: 128})
	held := false
	if err := d.AccessThen(false, 120, make([]byte, 16), func(func()) { held = true }); err == nil {
		t.Error("out-of-bounds access should fail")
	}
	e.Run()
	if held || d.Ports().InUse() != 0 {
		t.Fatal("a failed access must not take a port")
	}
	if err := d.Poke(-1, []byte{1}); err == nil {
		t.Fatal("negative poke should fail")
	}
	if err := d.Peek(128, []byte{1}); err == nil {
		t.Fatal("peek past end should fail")
	}
}

func TestDRAMPokePeek(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: 256})
	if err := d.Poke(10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 3)
	if err := d.Peek(10, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("peek = %v", out)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// refDRAM is the flat store the page store replaced: one host byte per
// simulated byte, allocated up front. The page store must read and
// fail exactly like it.
type refDRAM struct{ data []byte }

func (r *refDRAM) check(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > len(r.data) {
		return fmt.Errorf("mem: DRAM access [%d,%d) out of range [0,%d)", addr, addr+n, len(r.data))
	}
	return nil
}

func (r *refDRAM) Peek(addr int, buf []byte) error {
	if err := r.check(addr, len(buf)); err != nil {
		return err
	}
	copy(buf, r.data[addr:])
	return nil
}

func (r *refDRAM) Poke(addr int, buf []byte) error {
	if err := r.check(addr, len(buf)); err != nil {
		return err
	}
	copy(r.data[addr:], buf)
	return nil
}

// dramOp is one step of a page-store check: a timed write or read
// through AccessThen, a Peek or a Poke of n bytes at addr.
type dramOp struct {
	kind    int // 0 timed write, 1 timed read, 2 Peek, 3 Poke
	addr, n int
	fill    byte
}

// checkDRAMOps applies ops to a page-store DRAM of the given size and
// to the flat reference, and after each step compares the error and
// the bytes read, and the module's contents around the touched range;
// at the end it compares the whole module.
func checkDRAMOps(t testing.TB, size int, ops []dramOp) {
	t.Helper()
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Size: size, Latency: 3})
	ref := &refDRAM{data: make([]byte, size)}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i, op := range ops {
		buf := make([]byte, max(op.n, 0))
		for j := range buf {
			if op.kind == 1 || op.kind == 2 {
				buf[j] = 0xEE // a read must overwrite every byte
			} else {
				buf[j] = op.fill + byte(j*7)
			}
		}
		var err error
		switch op.kind {
		case 0, 1:
			ran := false
			err = d.AccessThen(op.kind == 0, op.addr, buf, func(release func()) {
				ran = true
				release()
			})
			e.Run()
			if ran == (err != nil) {
				t.Fatalf("step %d %+v: held ran %v with error %v", i, op, ran, err)
			}
		case 2:
			err = d.Peek(op.addr, buf)
		case 3:
			err = d.Poke(op.addr, buf)
		}
		want := make([]byte, len(buf))
		var werr error
		if op.kind == 0 || op.kind == 3 {
			werr = ref.Poke(op.addr, buf)
		} else {
			copy(want, buf)
			if werr = ref.Peek(op.addr, want); werr == nil && !bytes.Equal(buf, want) {
				t.Fatalf("step %d %+v: read %x, want %x", i, op, buf, want)
			}
		}
		if errText(err) != errText(werr) {
			t.Fatalf("step %d %+v: error %v, want %v", i, op, err, werr)
		}
		lo, hi := max(op.addr-pageSize, 0), min(op.addr+max(op.n, 0)+pageSize, size)
		if lo < hi {
			got, want := make([]byte, hi-lo), make([]byte, hi-lo)
			if err := d.Peek(lo, got); err != nil {
				t.Fatal(err)
			}
			copy(want, ref.data[lo:hi])
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d %+v: contents of [%d,%d) differ from the flat store", i, op, lo, hi)
			}
		}
	}
	all := make([]byte, size)
	if err := d.Peek(0, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, ref.data) {
		t.Fatal("final contents differ from the flat store")
	}
	if d.Ports().InUse() != 0 {
		t.Fatal("a port is still held")
	}
}

// dramEdge returns the address near a boundary that selector k picks:
// 0, the end of the module or a page boundary, nudged by delta.
func dramEdge(size, k, delta int) int {
	switch k % 3 {
	case 0:
		return delta
	case 1:
		return size + delta
	default:
		return (k/3%(size/pageSize+1))*pageSize + delta
	}
}

// TestDRAMMatchesFlat runs seeded mixes of timed accesses, Peeks and
// Pokes that straddle page and slab boundaries, read never-written
// pages, and include zero-length and out-of-range accesses, against
// the flat reference. The module's size is no multiple of a page, so
// its last page is partial. Each run first writes one byte to every
// even page and then to every odd one, so neighbouring pages sit in
// different slabs and an access across their boundary crosses slabs.
func TestDRAMMatchesFlat(t *testing.T) {
	const (
		size  = 5*slabSize + 3*pageSize + 123
		pages = size/pageSize + 1
	)
	lens := []int{0, 1, 7, pageSize - 1, pageSize, pageSize + 1, 2*pageSize + 5, slabSize + 3}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []dramOp
		for parity := 0; parity < 2; parity++ {
			for pg := parity; pg < pages; pg += 2 {
				// Odd seeds leave the upper half never written.
				if pg < pages/2 || seed%2 == 0 {
					ops = append(ops, dramOp{kind: 3, addr: pg * pageSize, n: 1, fill: byte(pg)})
				}
			}
		}
		for i := 0; i < 400; i++ {
			op := dramOp{}
			op.kind, op.fill = rng.Intn(4), byte(rng.Intn(256))
			op.n = lens[rng.Intn(len(lens))]
			switch rng.Intn(4) {
			case 0:
				op.addr = rng.Intn(size)
			case 1:
				op.addr = dramEdge(size, rng.Intn(64), rng.Intn(9)-4)
			case 2:
				// Stay in range, near a boundary.
				op.addr = min(max(dramEdge(size, rng.Intn(64), rng.Intn(9)-4), 0), size-op.n)
			default:
				// Out of range: a negative address or a length past the end.
				if rng.Intn(2) == 0 {
					op.addr = -1 - rng.Intn(pageSize)
				} else {
					op.addr, op.n = size-rng.Intn(pageSize), pageSize+rng.Intn(slabSize)
				}
			}
			if rng.Intn(40) == 0 {
				op.n = -1 // a negative length fails like the flat store
			}
			ops = append(ops, op)
		}
		checkDRAMOps(t, size, ops)
	}
}

// FuzzDRAM decodes the input into accesses, five bytes each (kind and
// boundary selector, delta, length), and checks the page store against
// the flat reference.
func FuzzDRAM(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 16, 1, 5, 1, 0, 16})
	f.Add([]byte{3, 11, 200, 16, 1, 2, 11, 190, 32, 0, 1, 6, 4, 0, 0})
	f.Add([]byte{0, 7, 128, 255, 255, 1, 1, 120, 0, 0, 2, 3, 127, 1, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		const size = 2*slabSize + pageSize/2
		var ops []dramOp
		for ; len(in) >= 5 && len(ops) < 64; in = in[5:] {
			n := int(in[3])<<8 | int(in[4])
			ops = append(ops, dramOp{
				kind: int(in[0] & 3),
				addr: dramEdge(size, int(in[0]>>2)+int(in[1])<<6, int(int8(in[2]))),
				n:    n % (2*slabSize + 2),
				fill: in[1] ^ in[2],
			})
		}
		checkDRAMOps(t, size, ops)
	})
}

// TestDRAMHostCost: a DRAM costs host memory for what was written, not
// for its size, and reading never-written memory allocates nothing.
func TestDRAMHostCost(t *testing.T) {
	e := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDRAM(e, DRAMConfig{Size: 512 << 20})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("NewDRAM of 512 MiB allocates %d bytes, want < 1 MiB", grew)
	}
	buf := make([]byte, 3*pageSize)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.Peek(200<<20+100, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Peek of never-written memory allocates %.0f objects, want 0", allocs)
	}
	held := func(release func()) { release() }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.AccessThen(false, 300<<20+100, buf, held); err != nil {
			t.Fatal(err)
		}
		e.Run()
	}); allocs != 0 {
		t.Errorf("a timed read of never-written memory allocates %.0f objects, want 0", allocs)
	}
	if d.Resident() != 0 {
		t.Errorf("reads made %d bytes resident, want 0", d.Resident())
	}
	// One page more than a slab holds, scattered over the module,
	// takes two slabs; a second write to a page costs nothing more.
	for i := 0; i <= slabPages; i++ {
		for k := 0; k < 2; k++ {
			if err := d.Poke(i*(7<<20/2)+k*100, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := d.Resident(); got != 2*slabSize {
		t.Errorf("%d written pages hold %d bytes, want %d (two slabs)", slabPages+1, got, 2*slabSize)
	}
}

// BenchmarkDRAMAccess4K times the page store's lookup and copy for one
// 4 KiB Peek or Poke: within a written page, of a never-written page,
// and straddling two written pages.
func BenchmarkDRAMAccess4K(b *testing.B) {
	d := NewDRAM(sim.NewEngine(), DRAMConfig{Size: 512 << 20})
	buf := make([]byte, pageSize)
	if err := d.Poke(64<<20, make([]byte, 2*pageSize)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		write bool
		addr  int
	}{
		{"read-written", false, 64 << 20},
		{"read-unwritten", false, 128 << 20},
		{"read-straddle", false, 64<<20 + pageSize/2},
		{"write-straddle", true, 64<<20 + pageSize/2},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(pageSize)
			for i := 0; i < b.N; i++ {
				var err error
				if c.write {
					err = d.Poke(c.addr, buf)
				} else {
					err = d.Peek(c.addr, buf)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
