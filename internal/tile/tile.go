// Package tile assembles processing elements (core + scratchpad + DTU)
// and the memory tile into a platform connected by the NoC — the
// simulated analogue of the paper's Tomahawk MPSoC.
package tile

import (
	"fmt"

	"repro/internal/dtu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CoreType describes the kind of core on a PE. The paper's point is
// that the OS does not care: every PE is driven through its DTU. Types
// matter only to applications that request a specific accelerator.
type CoreType string

// Core types of the prototype platform.
const (
	CoreXtensa CoreType = "xtensa" // general-purpose RISC core
	CoreFFT    CoreType = "fft"    // Xtensa with FFT instruction extensions
	CoreARM    CoreType = "arm"    // used for the Linux cross-check only
)

// PE is one processing element: core, scratchpad, and DTU.
type PE struct {
	ID   int
	Node noc.NodeID
	Type CoreType
	SPM  *mem.SPM
	DTU  *dtu.DTU

	plat    *Platform
	prog    *sim.Process
	crashed bool
}

// Ctx is the execution context handed to software running on a PE.
type Ctx struct {
	P  *sim.Process
	PE *PE
}

// Compute advances simulated time by n core cycles — the cost
// annotation for software work (the paper's cores are cycle-equivalent
// across the compared systems).
func (c *Ctx) Compute(n sim.Time) { c.P.Sleep(n) }

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.P.Now() }

// Start runs prog on the PE's core. A PE runs one program at a time
// (the paper's PEs are owned by one application); starting while a
// previous program still runs panics.
func (pe *PE) Start(name string, prog func(c *Ctx)) *sim.Process {
	if pe.prog != nil && !pe.prog.Dead() {
		panic(fmt.Sprintf("tile: PE %d already running %s", pe.ID, pe.prog.Name()))
	}
	p := pe.plat.Eng.Spawn(fmt.Sprintf("pe%d/%s", pe.ID, name), func(p *sim.Process) {
		prog(&Ctx{P: p, PE: pe})
	})
	pe.prog = p
	return p
}

// Running reports whether a program currently occupies the PE.
func (pe *PE) Running() bool { return pe.prog != nil && !pe.prog.Dead() }

// Crash kills the PE's core permanently: the running program dies
// mid-instruction and the core never fetches again. The DTU is a
// separate hardware block and keeps serving the NoC — the kernel can
// still probe the PE and deconfigure its endpoints, which is exactly
// the paper's isolation story surviving the failure. Only
// internal/fault may crash PEs (m3vet: faultsite).
func (pe *PE) Crash() {
	if pe.crashed {
		return
	}
	pe.crashed = true
	if pe.prog != nil && !pe.prog.Dead() {
		pe.prog.Kill()
	}
	if tr := pe.plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: pe.plat.Eng.Now(), PE: int32(pe.Node), Layer: obs.LApp,
			Kind: obs.EvCrash})
	}
}

// Obs returns the platform's structured tracer (nil-safe; software on
// the PE reads it to emit app- and service-layer events).
func (pe *PE) Obs() *obs.Tracer { return pe.plat.Obs }

// Crashed reports whether the core was crashed by fault injection.
func (pe *PE) Crashed() bool { return pe.crashed }

// Reset stops the PE on the kernel's behalf (the revocation of a VPE,
// §4.5.5: the kernel "resets the PE", and every hand-out of a PE): the
// program is killed and the DTU's endpoint registers are cleared, so
// the PE carries no stale communication rights to its next occupant.
func (pe *PE) Reset() {
	if pe.prog != nil && !pe.prog.Dead() {
		pe.prog.Kill()
	}
	pe.DTU.ResetEndpoints()
}

// Config parameterizes a platform.
type Config struct {
	// PEs lists the core type of each processing element, in PE-id
	// order. The platform places them on a near-square mesh with the
	// memory tile on the last node.
	PEs []CoreType
	// SPMSize is the per-PE data scratchpad in bytes (default 64 KiB,
	// the simulator version of Tomahawk).
	SPMSize int
	// EndpointsPerDTU (default 8).
	EndpointsPerDTU int
	// DRAM configures the memory tile (default 64 MiB, 1 port).
	DRAM mem.DRAMConfig
	// NoC overrides mesh parameters; Width/Height are derived from the
	// PE count when zero.
	NoC noc.Config
	// Obs, if set, is the structured tracer wired into the NoC and every
	// DTU (nil keeps structured observability off — not a single event).
	Obs *obs.Tracer
}

// Platform is the assembled hardware: PEs plus one memory tile on a
// mesh NoC, sharing a simulation engine.
type Platform struct {
	Eng  *sim.Engine
	Net  *noc.Network
	PEs  []*PE
	DRAM *mem.DRAM
	// DRAMNode is the memory tile's NoC node.
	DRAMNode noc.NodeID
	// Obs is the structured tracer (nil-safe; see package obs).
	Obs *obs.Tracer
}

// Homogeneous returns a Config with n general-purpose PEs.
func Homogeneous(n int) Config {
	pes := make([]CoreType, n)
	for i := range pes {
		pes[i] = CoreXtensa
	}
	return Config{PEs: pes}
}

// NewPlatform builds and wires the platform.
func NewPlatform(eng *sim.Engine, cfg Config) *Platform {
	p := newPlatform(eng, cfg)
	newMemTile(eng, p.Net, p.DRAMNode, p.DRAM)
	return p
}

// newPlatform builds the platform up to, but not including, the memory
// tile on node DRAMNode.
func newPlatform(eng *sim.Engine, cfg Config) *Platform {
	n := len(cfg.PEs)
	if n == 0 {
		panic("tile: platform needs at least one PE")
	}
	if cfg.SPMSize == 0 {
		cfg.SPMSize = 64 << 10
	}
	if cfg.DRAM.Size == 0 {
		cfg.DRAM.Size = 64 << 20
	}
	nocCfg := cfg.NoC
	if nocCfg.Width == 0 || nocCfg.Height == 0 {
		w := 1
		for w*w < n+1 {
			w++
		}
		h := (n + 1 + w - 1) / w
		nocCfg.Width, nocCfg.Height = w, h
	}
	if nocCfg.Width*nocCfg.Height < n+1 {
		panic("tile: mesh too small for PEs + memory tile")
	}
	p := &Platform{
		Eng:  eng,
		Net:  noc.New(eng, nocCfg),
		DRAM: mem.NewDRAM(eng, cfg.DRAM),
		Obs:  cfg.Obs,
	}
	p.Net.SetObserver(cfg.Obs)
	for i, ct := range cfg.PEs {
		node := noc.NodeID(i)
		pe := &PE{
			ID:   i,
			Node: node,
			Type: ct,
			SPM:  mem.NewSPM(cfg.SPMSize),
			plat: p,
		}
		pe.DTU = dtu.New(eng, p.Net, node, pe.SPM, cfg.EndpointsPerDTU)
		pe.DTU.SetObserver(cfg.Obs)
		thisPE := pe
		pe.DTU.SetCoreStatus(func() bool { return thisPE.crashed })
		p.PEs = append(p.PEs, pe)
	}
	p.DRAMNode = noc.NodeID(n)
	return p
}

// PEByNode returns the PE attached at node, or nil for the memory tile.
func (p *Platform) PEByNode(node noc.NodeID) *PE {
	if int(node) < len(p.PEs) {
		return p.PEs[node]
	}
	return nil
}

// FindPE returns the first PE of the given type for which free reports
// true under the caller's bookkeeping, or -1. The kernel uses its own
// allocation bitmaps; this helper serves tests and examples.
func (p *Platform) FindPE(t CoreType, used func(*PE) bool) int {
	for _, pe := range p.PEs {
		if pe.Type == t && !used(pe) {
			return pe.ID
		}
	}
	return -1
}
