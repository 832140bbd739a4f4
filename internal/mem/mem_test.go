package mem

import (
	"bytes"
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
