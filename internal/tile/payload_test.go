package tile

import (
	"bytes"
	"testing"

	"repro/internal/dtu"
	"repro/internal/noc"
	"repro/internal/sim"
)

// poisonPool fills the network's payload free list with buffers full
// of 0xAA, as if earlier transfers had left their bytes behind.
func poisonPool(net *noc.Network, n int) {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = net.NewPayload(4096)
		for j := range bufs[i] {
			bufs[i][j] = 0xAA
		}
	}
	for _, b := range bufs {
		net.FreePayload(b)
	}
}

// TestPayloadPoolLeaksNoStaleBytes: pooled payloads are reused without
// zeroing, so every fill must overwrite them completely. A PE reading
// DRAM or another PE's SPM that nobody wrote must see zeros, never a
// byte of an earlier transfer (§3: a PE must never observe another
// PE's data).
func TestPayloadPoolLeaksNoStaleBytes(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPlatform(eng, Homogeneous(2))
	pe := p.PEs[0]
	for ep, target := range []noc.NodeID{p.DRAMNode, p.PEs[1].Node} {
		if err := pe.DTU.Configure(ep, dtu.Endpoint{
			Type: dtu.EpMemory, MemTarget: target, MemAddr: 16 << 10, MemSize: 8 << 10, MemPerms: dtu.PermRW,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pe.Start("reader", func(c *Ctx) {
		for ep := 0; ep < 2; ep++ {
			for _, n := range []int{1, 100, 4095, 4096, 8192} {
				poisonPool(p.Net, 4)
				buf := make([]byte, n)
				if err := pe.DTU.ReadMem(c.P, ep, 0, buf); err != nil {
					t.Error(err)
					return
				}
				if i := bytes.IndexByte(buf, 0xAA); i >= 0 {
					t.Errorf("ep %d: %d-byte read of unwritten memory has a stale byte at %d", ep, n, i)
				}
			}
		}
	})
	eng.Run()
}

// TestPayloadPoolLossyReadYourWrites interleaves 4 KiB writes and reads
// of distinct patterns over a NoC that drops and corrupts packets,
// with RDMA op retries armed. The short timeout makes most reads time
// out at least once, so late responses to abandoned ops keep arriving:
// their payloads are left to the garbage collector, and every read must
// still return the last acknowledged write to its slot.
func TestPayloadPoolLossyReadYourWrites(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPlatform(eng, Homogeneous(2))
	pe := p.PEs[0]
	pe.DTU.EnableFaults(&dtu.FaultConfig{Timeout: 300})
	p.Net.SetFaultHook(func(from, to noc.NodeID, pkt *noc.Packet) noc.LinkFault {
		switch sim.Hash(uint64(from), uint64(to), uint64(eng.Now()), uint64(pkt.Size)) % 100 {
		case 0, 1, 2:
			return noc.LinkDrop
		case 3:
			return noc.LinkCorrupt
		}
		return noc.LinkOK
	})
	const slots = 4
	if err := pe.DTU.Configure(0, dtu.Endpoint{
		Type: dtu.EpMemory, MemTarget: p.DRAMNode, MemSize: slots * 4096, MemPerms: dtu.PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	pattern := func(gen, slot int) []byte {
		b := make([]byte, 4096)
		for i := range b {
			b[i] = byte(gen*31 + slot*7 + i)
		}
		return b
	}
	last := make([]int, slots) // generation of the last acknowledged write, 0 = none
	pe.Start("rdma", func(c *Ctx) {
		buf := make([]byte, 4096)
		for gen := 1; gen <= 40; gen++ {
			slot := gen % slots
			if err := pe.DTU.WriteMem(c.P, 0, slot*4096, pattern(gen, slot)); err != nil {
				t.Errorf("gen %d: write: %v", gen, err)
				return
			}
			last[slot] = gen
			read := (gen * 3) % slots
			if err := pe.DTU.ReadMem(c.P, 0, read*4096, buf); err != nil {
				t.Errorf("gen %d: read: %v", gen, err)
				return
			}
			want := make([]byte, 4096)
			if last[read] > 0 {
				want = pattern(last[read], read)
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("gen %d: slot %d does not hold write %d", gen, read, last[read])
				return
			}
		}
	})
	eng.Run()
	if pe.DTU.Stats.OpTimeouts == 0 || p.Net.PacketsDropped == 0 || p.Net.PacketsCorrupted == 0 {
		t.Fatalf("weather too mild: %d op timeouts, %d drops, %d corruptions",
			pe.DTU.Stats.OpTimeouts, p.Net.PacketsDropped, p.Net.PacketsCorrupted)
	}
}

// rdmaLoop boots a one-PE platform whose PE runs a 4 KiB WriteMem and
// ReadMem to DRAM each time it is kicked; run kicks it once and runs
// the engine until the round trip is done.
func rdmaLoop(tb testing.TB) (run func()) {
	eng := sim.NewEngine()
	p := NewPlatform(eng, Homogeneous(1))
	d := p.PEs[0].DTU
	if err := d.Configure(0, dtu.Endpoint{
		Type: dtu.EpMemory, MemTarget: p.DRAMNode, MemSize: 1 << 20, MemPerms: dtu.PermRW,
	}); err != nil {
		tb.Fatal(err)
	}
	kick := sim.NewSignal(eng)
	buf := make([]byte, 4096)
	var err error
	eng.Spawn("rdma", func(proc *sim.Process) {
		proc.SetDaemon()
		for i := 0; ; i++ {
			kick.Wait(proc)
			off := i % 256 * len(buf)
			if err = d.WriteMem(proc, 0, off, buf); err == nil {
				err = d.ReadMem(proc, 0, off, buf)
			}
		}
	})
	eng.Run() // park the loop on its first Wait
	notify := kick.Notify
	return func() {
		eng.Schedule(0, notify)
		eng.Run()
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRDMARoundTripAllocs bounds the host allocations of a lossless
// 4 KiB WriteMem+ReadMem round trip. The payloads come from the
// network's pool, so the round trip allocates only small bookkeeping
// objects; a payload-sized allocation coming back would blow the byte
// budget even where the object count barely moves.
func TestRDMARoundTripAllocs(t *testing.T) {
	run := rdmaLoop(t)
	// Warm the pools, and let the DTU's op table settle into steady
	// state (its churn of fresh op ids rehashes now and then).
	for i := 0; i < 500; i++ {
		run()
	}
	// What is left: the request and response headers of the two
	// operations and the op table's rehashing; pending-op records,
	// their signals and the payloads are pooled.
	if allocs := testing.AllocsPerRun(2000, run); allocs > 6 {
		t.Errorf("round trip allocates %.0f objects, want <= 6", allocs)
	}
	res := testing.Benchmark(func(b *testing.B) {
		run := rdmaLoop(b)
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	if per := res.AllocedBytesPerOp(); per >= 1024 {
		t.Errorf("round trip allocates %d B, want < 1024 (no 4 KiB payload per transfer)", per)
	}
}

// BenchmarkRDMA4K times one 4 KiB WriteMem plus one ReadMem between a
// PE and DRAM.
func BenchmarkRDMA4K(b *testing.B) {
	run := rdmaLoop(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
