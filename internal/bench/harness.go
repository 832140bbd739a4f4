// Package bench is the evaluation harness: it re-runs every experiment
// from the paper's evaluation (§5, Figures 3–7 and the §5.2
// cross-check) on the simulated platform and prints the corresponding
// rows/series. See EXPERIMENTS.md for paper-vs-measured numbers.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/linuxos"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// Breakdown splits a measured run into the paper's stacked-bar
// categories.
type Breakdown struct {
	App   sim.Time // application compute (incl. unsupported syscalls)
	Xfer  sim.Time // data transfers (DTU or memcpy)
	OS    sim.Time // everything else: syscalls, services, libm3/libc
	Total sim.Time
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%d (app=%d xfer=%d os=%d)", b.Total, b.App, b.Xfer, b.OS)
}

// M3Options configures an M3 run.
type M3Options struct {
	// FFTPEs adds accelerator cores to the platform.
	FFTPEs int
	// ExtraPEs adds spare general-purpose cores (children need them).
	ExtraPEs int
	// NoCUnlimited disables link contention ("the NoC scales
	// perfectly", §5.7).
	NoCUnlimited bool
	// NoCTorus adds wrap-around links (topology ablation).
	NoCTorus bool
	// DRAMPorts overrides the memory ports (0 = 1).
	DRAMPorts int
	// DRAMSize overrides the module size.
	DRAMSize int
	// FS configures m3fs.
	FS m3fs.Config
	// FSPolicy, when MaxRestarts > 0, starts m3fs under kernel
	// supervision: a crashed service incarnation is respawned on a
	// spare PE (provide one via ExtraPEs) with a bumped service epoch.
	FSPolicy core.RestartPolicy
	// AppendBlocks/NoMerge tune the client's extent allocation
	// (Figure 4).
	AppendBlocks int
	NoMerge      bool
	// Obs, if set, is the structured tracer wired through the NoC and
	// every DTU (spans, histograms, flight recorder). Nil keeps
	// structured observability fully off.
	Obs *obs.Tracer
	// RxWatermark, when > 0, arms admission control on the m3fs
	// service PE's DTU (docs/OVERLOAD.md): a request arriving with this
	// many messages already queued is refused with a fast-fail reply
	// instead of being buffered. Zero (the default) leaves the run
	// bit-identical to an unarmed one.
	RxWatermark int
}

// bootPlatform builds the platform and kernel of an M3 run, with
// appPEs application cores, and returns a Result holding them. No
// software runs yet: Scenario starts m3fs and the instances, and
// NullSyscallM3 its own m3fs and probe.
func bootPlatform(opt M3Options, appPEs int) *Result {
	eng := sim.NewEngine()
	types := []tile.CoreType{tile.CoreXtensa, tile.CoreXtensa} // kernel, m3fs
	for i := 0; i < appPEs+opt.ExtraPEs; i++ {
		types = append(types, tile.CoreXtensa)
	}
	for i := 0; i < opt.FFTPEs; i++ {
		types = append(types, tile.CoreFFT)
	}
	cfg := tile.Config{PEs: types, Obs: opt.Obs}
	cfg.NoC.Unlimited = opt.NoCUnlimited
	cfg.NoC.Torus = opt.NoCTorus
	if opt.DRAMPorts > 0 {
		cfg.DRAM.Ports = opt.DRAMPorts
	}
	if opt.DRAMSize > 0 {
		cfg.DRAM.Size = opt.DRAMSize
	}
	plat := tile.NewPlatform(eng, cfg)
	kern := core.Boot(plat, 0)
	// The m3fs PE is index 1 by construction.
	plat.PEs[1].DTU.SetRxWatermark(opt.RxWatermark)
	return &Result{Eng: eng, Plat: plat, Kern: kern}
}

// xferCycles estimates the DTU data-transfer cycles from the hardware
// counters: streamed bytes at 8 B/cycle plus the fixed per-transfer
// DRAM/NoC latency.
func xferCycles(plat *tile.Platform) sim.Time {
	var bytes, ops uint64
	for _, pe := range plat.PEs {
		st := pe.DTU.Stats
		bytes += st.BytesRead + st.BytesWritten
		ops += st.MemReads + st.MemWrites
	}
	perOp := plat.DRAM.Latency() + 8 // latency + a few hops
	return sim.Time(bytes/8) + sim.Time(ops)*perOp
}

// RunStats describes the simulation run itself, independent of the
// workload's cycle breakdown: the exact number of executed events and
// the final simulated time. Two runs of the same configuration must
// produce identical RunStats — this is the runtime witness for the
// determinism invariants m3vet enforces statically.
type RunStats struct {
	ExecutedEvents uint64
	FinalTime      sim.Time
}

// Fig6Options is the platform of Figure 6: a perfectly scaling NoC,
// one DRAM port per possible instance, and memory and an m3fs region
// large enough for 16 instances of every workload.
func Fig6Options() M3Options {
	return M3Options{
		NoCUnlimited: true,
		DRAMPorts:    64,
		DRAMSize:     512 << 20,
		FS:           m3fs.Config{RegionSize: 384 << 20},
	}
}

// NullSyscallM3 measures the M3 null system call and its wire share.
// It boots its own platform rather than a Scenario: its loop overlaps
// m3fs's boot syscalls on the kernel PE, and the reported 195 cycles
// include that contention (EXPERIMENTS.md E1).
func NullSyscallM3() (total, xfer sim.Time) {
	s := bootPlatform(M3Options{}, 1)
	if _, err := s.Kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(s.Kern, m3fs.Config{}, nil)); err != nil {
		panic(err)
	}
	var t sim.Time
	_, err := s.Kern.StartInit("app", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, s.Kern)
		const rounds = 16
		if err := env.Noop(); err != nil { // warm up
			panic(err)
		}
		start := ctx.Now()
		for i := 0; i < rounds; i++ {
			if err := env.Noop(); err != nil {
				panic(err)
			}
		}
		t = (ctx.Now() - start) / rounds
		env.Exit(0)
	})
	if err != nil {
		panic(err)
	}
	s.Eng.Run()
	// Wire share: request and reply transfer times between the app PE
	// (id 2) and the kernel (id 0).
	app := s.Plat.PEs[2].Node
	kern := s.Plat.PEs[0].Node
	x := s.Plat.Net.TransferTime(app, kern, dtu.HeaderSize+8) +
		s.Plat.Net.TransferTime(kern, app, dtu.HeaderSize+8)
	return t, x
}

// NullSyscallLx returns the Linux null-syscall cost for a profile.
func NullSyscallLx(prof linuxos.Profile) sim.Time { return prof.SyscallCost }
