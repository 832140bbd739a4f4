package bench

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/linuxos"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

// Ablations quantify the design choices DESIGN.md calls out. Each
// returns measurements for the design as built vs. the ablated
// variant.

// CreditAblation sends a burst from many senders into one receive
// gate. With honest credits (total credits <= ringbuffer slots) no
// message is lost; overcommitting the buffer — the configuration the
// paper warns about in §4.4.3 — silently drops messages.
type CreditAblation struct {
	Senders   int
	Delivered uint64
	Dropped   uint64
}

// RunCreditAblation configures one receive endpoint with `slots`
// ringbuffer slots and `senders` send endpoints with `creditsEach`
// credits, fires one burst from every sender, and reports delivery.
func RunCreditAblation(senders, slots, creditsEach, burst int) (CreditAblation, error) {
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(senders+1))
	recv := plat.PEs[0]
	if err := recv.DTU.Configure(0, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: 0, SlotSize: 64 + dtu.HeaderSize, SlotCount: slots,
	}); err != nil {
		return CreditAblation{}, err
	}
	for i := 1; i <= senders; i++ {
		pe := plat.PEs[i]
		if err := pe.DTU.Configure(1, dtu.Endpoint{
			Type: dtu.EpSend, Target: recv.Node, TargetEP: 0,
			Label: uint64(i), Credits: creditsEach, MsgSize: 64,
		}); err != nil {
			return CreditAblation{}, err
		}
		pe.Start("sender", func(c *tile.Ctx) {
			for n := 0; n < burst; n++ {
				// Fire-and-forget: the ablated variant has no reply
				// path to restore credits, mirroring a misconfigured
				// channel.
				_ = c.PE.DTU.Send(c.P, 1, []byte{byte(n)}, -1, 0)
				c.Compute(10)
			}
		})
	}
	// A slow receiver drains the buffer with a fixed service time.
	recv.Start("receiver", func(c *tile.Ctx) {
		for i := 0; i < senders*burst; i++ {
			msg := c.PE.DTU.Fetch(0)
			if msg == nil {
				if !anySenderAlive(plat, senders) && !c.PE.DTU.HasMsg(0) {
					return
				}
				c.Compute(50)
				continue
			}
			c.Compute(200)
			c.PE.DTU.Ack(0, msg)
		}
	})
	eng.Run()
	return CreditAblation{
		Senders:   senders,
		Delivered: recv.DTU.Stats.MsgsReceived,
		Dropped:   recv.DTU.Stats.MsgsDropped,
	}, nil
}

func anySenderAlive(plat *tile.Platform, senders int) bool {
	for i := 1; i <= senders; i++ {
		if plat.PEs[i].Running() {
			return true
		}
	}
	return false
}

// EPMuxAblation measures the cost of endpoint multiplexing: accessing
// more memory gates than the DTU has endpoints forces libm3 to
// re-activate gates via system calls (§4.5.4).
type EPMuxAblation struct {
	Gates     int
	Cycles    sim.Time
	Activates uint64
}

// RunEPMuxAblation touches `gates` memory gates round-robin for
// `rounds` rounds and reports total cycles plus activation syscalls.
// The program reads the kernel's syscall counters mid-run, so it boots
// the scenario and runs it in two steps.
func RunEPMuxAblation(gates, rounds int) (EPMuxAblation, error) {
	res := EPMuxAblation{Gates: gates}
	var r *Result
	b := workload.Benchmark{
		Name:  "epmux",
		PEs:   1,
		Setup: func(workload.OS) error { return nil },
		Run: func(os workload.OS) error {
			env := os.(*workload.M3OS).Env
			var mgs []*m3.MemGate
			for i := 0; i < gates; i++ {
				mg, err := env.ReqMem(1024, dtu.PermRW)
				if err != nil {
					return err
				}
				mgs = append(mgs, mg)
			}
			buf := make([]byte, 64)
			// Warm every gate once so the measured loop sees only
			// multiplexing-induced re-activations.
			for _, mg := range mgs {
				if err := mg.Write(buf, 0); err != nil {
					return err
				}
			}
			activatesBefore := r.Kern.Stats.Syscalls[kif.SysActivate]
			start := env.Ctx.Now()
			for i := 0; i < rounds; i++ {
				for _, mg := range mgs {
					if err := mg.Write(buf, 0); err != nil {
						return err
					}
				}
			}
			res.Cycles = env.Ctx.Now() - start
			res.Activates = r.Kern.Stats.Syscalls[kif.SysActivate] - activatesBefore
			return nil
		},
	}
	sc := Scenario{Workload: b}
	r, err := sc.boot()
	if err != nil {
		return res, err
	}
	return res, sc.run(r)
}

// ExtentBatchAblation compares writing a file with single-block
// appends against the 256-block batching m3fs uses by default.
type ExtentBatchAblation struct {
	AppendBlocks int
	WriteCycles  sim.Time
	Extents      int
}

// RunExtentBatchAblation writes a 512 KiB file with the given append
// granularity.
func RunExtentBatchAblation(appendBlocks int) (ExtentBatchAblation, error) {
	res := ExtentBatchAblation{AppendBlocks: appendBlocks}
	b := workload.Benchmark{
		Name:  "extent-batch",
		PEs:   1,
		Setup: func(os workload.OS) error { return nil },
		Run: func(os workload.OS) error {
			f, err := os.Open("/batch.bin", workload.Write|workload.Create|workload.Trunc)
			if err != nil {
				return err
			}
			buf := make([]byte, 4096)
			for written := 0; written < 512<<10; written += len(buf) {
				if _, err := f.Write(buf); err != nil {
					return err
				}
			}
			return f.Close()
		},
	}
	r, err := Scenario{Workload: b, M3Options: M3Options{AppendBlocks: appendBlocks, NoMerge: true}}.Run()
	if err != nil {
		return res, err
	}
	res.WriteCycles = r.Outcomes[0].RunTime
	res.Extents = (512 << 10) / (appendBlocks * 1024)
	return res, nil
}

// ContentionAblation runs n tar instances with realistic NoC/DRAM
// contention vs. the perfectly-scaling variant of Figure 6.
type ContentionAblation struct {
	Instances            int
	Contended, Unlimited sim.Time
}

// RunContentionAblation measures both variants.
func RunContentionAblation(n int) (ContentionAblation, error) {
	res := ContentionAblation{Instances: n}
	b, err := workload.ByName("tar")
	if err != nil {
		return res, err
	}
	if res.Unlimited, err = meanRunTime(b, n, Fig6Options()); err != nil {
		return res, err
	}
	res.Contended, err = meanRunTime(b, n, contendedOptions())
	return res, err
}

// TopologyAblation compares contended multi-instance runs on the 2D
// mesh against a torus with wrap-around links.
type TopologyAblation struct {
	Instances   int
	Mesh, Torus sim.Time
}

// RunTopologyAblation measures both topologies under real contention.
func RunTopologyAblation(n int) (TopologyAblation, error) {
	res := TopologyAblation{Instances: n}
	b, err := workload.ByName("tar")
	if err != nil {
		return res, err
	}
	if res.Mesh, err = meanRunTime(b, n, contendedOptions()); err != nil {
		return res, err
	}
	torus := contendedOptions()
	torus.NoCTorus = true
	res.Torus, err = meanRunTime(b, n, torus)
	return res, err
}

// contendedOptions is the Figure 6 platform with real link and memory
// port contention.
func contendedOptions() M3Options {
	return M3Options{DRAMPorts: 1, DRAMSize: 512 << 20, FS: m3fs.Config{RegionSize: 384 << 20}}
}

// meanRunTime runs n instances of b and returns the mean instance time.
func meanRunTime(b workload.Benchmark, n int, opt M3Options) (sim.Time, error) {
	r, err := Scenario{Workload: b, Instances: n, M3Options: opt}.Run()
	if err != nil {
		return 0, err
	}
	return r.MeanRunTime()
}

// RunMmapComparison copies a file of the given size on warm-cache
// Linux via read/write and via mmap, returning both durations. The
// paper measured the mmap variant and excluded it for its cache
// thrashing (§5.4).
func RunMmapComparison(size int) (readwrite, mmap sim.Time) {
	copyVia := func(useMmap bool) sim.Time {
		eng := sim.NewEngine()
		sys := linuxos.New(eng, linuxos.ProfileXtensa, false)
		var took sim.Time
		sys.Spawn("copy", func(pr *linuxos.Proc) {
			fd, _ := pr.Open("/src", linuxos.OWrite|linuxos.OCreate)
			_, _ = pr.Write(fd, make([]byte, size))
			_ = pr.Close(fd)
			fd, _ = pr.Open("/dst", linuxos.OWrite|linuxos.OCreate)
			_ = pr.Close(fd)
			start := pr.P().Now()
			if useMmap {
				src, _ := pr.Mmap("/src")
				dst, _ := pr.Mmap("/dst")
				_, _ = src.CopyTo(dst)
				src.Unmap()
				dst.Unmap()
			} else {
				src, _ := pr.Open("/src", linuxos.ORead)
				dst, _ := pr.Open("/dst", linuxos.OWrite)
				buf := make([]byte, 4096)
				for {
					n, err := pr.Read(src, buf)
					if n > 0 {
						_, _ = pr.Write(dst, buf[:n])
					}
					if err != nil {
						break
					}
				}
				_ = pr.Close(src)
				_ = pr.Close(dst)
			}
			took = pr.P().Now() - start
		})
		eng.Run()
		return took
	}
	return copyVia(false), copyVia(true)
}
