package main

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/mem"
	//m3vet:allow crosslayer the noc probe drives a bare network to time one Send; no PE-side NoC access
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

// A probe times calls into one layer's public functions with
// testing.Benchmark.
type probe struct {
	name string
	// benchtime is the -test.benchtime for this probe.
	benchtime string
	// reps, if set, repeats the probe and reports the median. Boots use
	// it: a boot's DRAM sometimes lands on reused heap pages, which Go
	// zeroes, so their mean would swing with the odd zeroed boot.
	reps int
	// allocs adds B/op and allocs/op to the report.
	allocs bool
	// ms reports ms/op instead of ns/op.
	ms bool
	fn func(b *testing.B)
}

// The boot probes run first: later probes leave garbage whose freed
// pages a boot's DRAM would reuse, and Go zeroes reused pages.
var probes = []probe{
	{name: "tile.boot_64m", benchtime: "1x", reps: 11, ms: true, fn: probeBoot(64 << 20)},
	{name: "tile.boot_512m", benchtime: "1x", reps: 11, ms: true, fn: probeBoot(fig6DRAMSize)},
	{name: "sim.schedule", benchtime: "200ms", fn: probeSchedule},
	{name: "sim.switch", benchtime: "200ms", fn: probeSwitch},
	{name: "noc.send", benchtime: "200ms", fn: probeNoCSend},
	{name: "dtu.msg_rtt", benchtime: "200ms", allocs: true, fn: probeMsgRTT},
	{name: "dtu.rdma_4k", benchtime: "200ms", allocs: true, fn: probeRDMA},
	{name: "core.noop", benchtime: "200ms", fn: probeNoop},
	{name: "m3fs.stat", benchtime: "200ms", fn: probeFS(fsStat)},
	{name: "m3fs.read4k", benchtime: "200ms", fn: probeFS(fsRead)},
	{name: "m3fs.write4k", benchtime: "200ms", fn: probeFS(fsWrite)},
	{name: "obs.emit", benchtime: "200ms", fn: probeEmit},
}

// runProbes runs every probe and returns its metrics by name.
func runProbes() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range probes {
		if err := flag.Set("test.benchtime", p.benchtime); err != nil {
			return nil, err
		}
		var ns []float64
		var r testing.BenchmarkResult
		for i := 0; i < max(p.reps, 1); i++ {
			if r = testing.Benchmark(p.fn); r.N == 0 {
				return nil, fmt.Errorf("probe %s failed", p.name)
			}
			ns = append(ns, float64(r.T.Nanoseconds())/float64(r.N))
		}
		if p.ms {
			out[p.name+"_ms"] = median(ns) / 1e6
		} else {
			out[p.name+"_ns"] = median(ns)
		}
		if p.allocs {
			out[p.name+"_bytes_per_op"] = float64(r.MemBytes) / float64(r.N)
			out[p.name+"_allocs_per_op"] = float64(r.MemAllocs) / float64(r.N)
		}
	}
	return out, nil
}

// probeSchedule times one Schedule plus the step that runs it: a chain
// of b.N events, each scheduling the next.
func probeSchedule(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			eng.Schedule(1, tick)
		}
	}
	eng.Schedule(1, tick)
	b.ResetTimer()
	eng.Run()
}

// probeSwitch times one Process.Sleep round trip: engine to process
// and back.
func probeSwitch(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	eng.Spawn("probe", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// probeNoCSend times one 64-byte packet across one contended link.
func probeNoCSend(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Config{Width: 2, Height: 1})
	for node := noc.NodeID(0); node < 2; node++ {
		net.Attach(node, noc.HandlerFunc(func(*noc.Packet) {}))
	}
	eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			pkt := net.NewPacket()
			pkt.Src, pkt.Dst, pkt.Size = 0, 1, 64
			net.Send(p, pkt)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// dtuPair is two DTUs on a 2x1 mesh without the tile layer: DTU 0 sends
// on endpoint 1 to DTU 1's receive endpoint 0 and takes replies on its
// endpoint 2.
func dtuPair(b *testing.B) (*sim.Engine, *dtu.DTU, *dtu.DTU) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Config{Width: 2, Height: 1})
	d0 := dtu.New(eng, net, 0, mem.NewSPM(64<<10), 8)
	d1 := dtu.New(eng, net, 1, mem.NewSPM(64<<10), 8)
	const slot = 256 + dtu.HeaderSize
	cfgs := []struct {
		d  *dtu.DTU
		ep int
		e  dtu.Endpoint
	}{
		{d1, 0, dtu.Endpoint{Type: dtu.EpReceive, SlotSize: slot, SlotCount: 4}},
		{d0, 1, dtu.Endpoint{Type: dtu.EpSend, Target: 1, Label: 1, Credits: 4, MsgSize: 256}},
		{d0, 2, dtu.Endpoint{Type: dtu.EpReceive, BufAddr: 8192, SlotSize: slot, SlotCount: 4}},
	}
	for _, c := range cfgs {
		if err := c.d.Configure(c.ep, c.e); err != nil {
			b.Fatal(err)
		}
	}
	return eng, d0, d1
}

// probeMsgRTT times one 64-byte message and its reply.
func probeMsgRTT(b *testing.B) {
	b.ReportAllocs()
	eng, d0, d1 := dtuPair(b)
	payload := make([]byte, 64)
	var err error
	eng.Spawn("receiver", func(p *sim.Process) {
		for i := 0; i < b.N && err == nil; i++ {
			msg, _ := d1.WaitMsg(p, 0)
			err = d1.Reply(p, 0, msg, payload)
		}
	})
	eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < b.N && err == nil; i++ {
			if err = d0.Send(p, 1, payload, 2, 0); err != nil {
				return
			}
			msg, _ := d0.WaitMsg(p, 2)
			d0.Ack(2, msg)
		}
	})
	b.ResetTimer()
	eng.Run()
	if err != nil {
		b.Fatal(err)
	}
}

// probeRDMA times one 4 KiB transfer between a PE and DRAM, writes and
// reads alternating.
func probeRDMA(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(1))
	d := plat.PEs[0].DTU
	err := d.Configure(0, dtu.Endpoint{Type: dtu.EpMemory, MemTarget: plat.DRAMNode,
		MemSize: 1 << 20, MemPerms: dtu.PermRW})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	eng.Spawn("rdma", func(p *sim.Process) {
		for i := 0; i < b.N && err == nil; i++ {
			off := (i / 2 % 256) * len(buf)
			if i%2 == 0 {
				err = d.WriteMem(p, 0, off, buf)
			} else {
				err = d.ReadMem(p, 0, off, buf)
			}
		}
	})
	b.ResetTimer()
	eng.Run()
	if err != nil {
		b.Fatal(err)
	}
}

// bootApp boots a three-PE platform with m3fs and runs app as the
// first application. app resets the benchmark timer once it is set up.
func bootApp(b *testing.B, app func(env *m3.Env) error) {
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(3))
	kern := core.Boot(plat, 0)
	if _, err := kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(kern, m3fs.Config{}, nil)); err != nil {
		b.Fatal(err)
	}
	var appErr error
	_, err := kern.StartInit("probe", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		appErr = app(env)
		env.Exit(0)
	})
	if err != nil {
		b.Fatal(err)
	}
	eng.Run()
	if appErr != nil {
		b.Fatal(appErr)
	}
}

// probeNoop times the null system call round trip.
func probeNoop(b *testing.B) {
	bootApp(b, func(env *m3.Env) error {
		if err := env.Noop(); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := env.Noop(); err != nil {
				return err
			}
		}
		return nil
	})
}

type fsOp uint8

const (
	fsStat fsOp = iota
	fsRead
	fsWrite
)

// probeFS times one m3fs operation through libm3's VFS on a 64 KiB
// file: a stat, or a 4 KiB read or write at a rotating offset of an
// open file.
func probeFS(op fsOp) func(b *testing.B) {
	return func(b *testing.B) {
		bootApp(b, func(env *m3.Env) error {
			os, err := workload.NewM3OS(env)
			if err != nil {
				return err
			}
			const size = 64 << 10
			if err := writeFile(os, "/f", size, func(int, []byte) {}); err != nil {
				return err
			}
			flags := workload.Read
			if op == fsWrite {
				flags = workload.Write
			}
			f, err := os.Open("/f", flags)
			if err != nil {
				return err
			}
			sf := f.(workload.SeekableFile)
			buf := make([]byte, chunkSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i%(size/chunkSize)) * chunkSize
				switch op {
				case fsStat:
					_, err = os.Stat("/f")
				case fsRead:
					if _, err = sf.Seek(off, io.SeekStart); err == nil {
						_, err = f.Read(buf)
					}
				case fsWrite:
					if _, err = sf.Seek(off, io.SeekStart); err == nil {
						_, err = f.Write(buf)
					}
				}
				if err != nil {
					return err
				}
			}
			b.StopTimer()
			return f.Close()
		})
	}
}

// probeEmit times one structured event into a tracer with a sink.
func probeEmit(b *testing.B) {
	b.ReportAllocs()
	var n uint64
	tr := obs.New(obs.Options{Sink: func(ev obs.Event) { n += ev.Arg0 }})
	ev := obs.Event{PE: 1, Layer: obs.LDTU, Kind: obs.EvMsgSend, Span: 1, Arg0: 1}
	for i := 0; i < b.N; i++ {
		ev.At = sim.Time(i)
		tr.Emit(ev)
	}
	if n != uint64(b.N) {
		b.Fatalf("sink saw %d events, want %d", n, b.N)
	}
}

// probeBoot times building an 18-PE platform with dramSize bytes of
// DRAM and booting the kernel on it: the untar16 platform's fixed cost.
func probeBoot(dramSize int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			cfg := tile.Homogeneous(18)
			cfg.DRAM.Size, cfg.DRAM.Ports, cfg.NoC.Unlimited = dramSize, fig6Ports, true
			core.Boot(tile.NewPlatform(eng, cfg), 0)
			eng.Run()
		}
	}
}
