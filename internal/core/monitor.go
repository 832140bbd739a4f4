package core

import (
	"errors"
	"fmt"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// EnableDeathWatch starts the kernel's PE death watchdog: a kernel
// activity that periodically probes the DTU of every started,
// non-exited VPE. The DTU answers autonomously — a crashed core cannot
// and need not be involved — so "my core is dead" and "no answer after
// the full retry budget" (maxMiss consecutive times) both mean the VPE
// is gone and must be reaped.
//
// The watchdog runs while active() reports true and then returns, so
// an otherwise finished simulation does not tick forever. Only
// internal/fault enables it (m3vet: faultsite); without fault
// injection there is nothing to detect and no probe traffic exists.
func (k *Kernel) EnableDeathWatch(period sim.Time, maxMiss int, active func() bool) {
	if period <= 0 {
		panic("core: death-watch period must be positive")
	}
	if maxMiss <= 0 {
		maxMiss = 1
	}
	misses := make(map[uint64]int)
	k.Plat.Eng.Spawn("kernel-watchdog", func(p *sim.Process) {
		for active() {
			p.Sleep(period)
			for _, vpe := range k.VPEs() {
				if !vpe.started || vpe.exited {
					continue
				}
				k.compute(p, CostProbe)
				crashed, err := k.PE.DTU.Probe(p, vpe.PE.Node)
				if err != nil {
					misses[vpe.ID]++
					if tr := k.Plat.Obs; tr.On() {
						tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
							Kind: obs.EvProbeMiss, Arg0: vpe.ID, Arg1: uint64(misses[vpe.ID]), Arg2: uint64(maxMiss)})
					}
					if misses[vpe.ID] >= maxMiss {
						k.reapVPE(p, vpe)
					}
					continue
				}
				misses[vpe.ID] = 0
				if crashed {
					k.reapVPE(p, vpe)
				}
			}
		}
	})
}

// reapVPE tears down a VPE whose core died through the drop routine an
// exit takes, with the crash exit code, and also invalidates every
// endpoint of the dead PE so no communication right survives the crash
// in hardware. The PE is never returned to the allocator.
func (k *Kernel) reapVPE(p *sim.Process, vpe *VPE) {
	if vpe.exited {
		return
	}
	k.Stats.VPEsReaped++
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvReap, Arg0: vpe.ID, Arg1: uint64(vpe.PE.ID)})
	}
	k.revoke(p, CostReap, CostRevokeCap, func(w *dropWalk) {
		w.end(vpe, CrashExitCode)
		for ep := 0; ep < vpe.PE.DTU.NumEndpoints(); ep++ {
			w.eps = append(w.eps, epRef{vpe.PE.Node, ep})
		}
	})
	// Supervisor hook: a supervised service gets respawned on a spare
	// PE after its policy's backoff (no-op for everything else).
	k.maybeRespawn(vpe)
}

// invalidateEP deconfigures one endpoint, tolerating an unreachable
// target: when even the DTU of a dead PE stops answering, the revoked
// rights die with the hardware that held them. Any other failure is an
// isolation hole and panics, like mustConfig on the happy paths.
func (k *Kernel) invalidateEP(p *sim.Process, node noc.NodeID, ep int) {
	err := k.configRemote(p, node, ep, dtu.Endpoint{Type: dtu.EpInvalid})
	if err == nil {
		return
	}
	if errors.Is(err, dtu.ErrTimeout) {
		k.Stats.FailedInvalidations++
		if tr := k.Plat.Obs; tr.On() {
			tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
				Kind: obs.EvInvalFail, Arg0: uint64(ep), Arg1: uint64(node)})
		}
		return
	}
	panic(fmt.Sprintf("core: endpoint invalidation failed: %v", err))
}

// CheckEndpoints validates the kernel's isolation invariant at the NoC:
// every configured endpoint at the PE of a non-exited VPE is a standard
// endpoint or active for a capability still in that VPE's table, and no
// crashed PE has a configured endpoint (the kernel's PE holds no VPE).
func (k *Kernel) CheckEndpoints() error {
	for _, vpe := range k.VPEs() {
		for ep := kif.FirstFreeEP; !vpe.exited && ep < len(vpe.epCaps); ep++ {
			c := vpe.epCaps[ep]
			if typ := vpe.PE.DTU.EP(ep).Type; typ != dtu.EpInvalid && (c == nil || vpe.Caps.caps[c.sel] != c) {
				return fmt.Errorf("vpe %d (%s): endpoint %d configured as %v for no capability in its table", vpe.ID, vpe.Name, ep, typ)
			}
		}
	}
	for _, pe := range k.Plat.PEs {
		for ep := 0; pe.Crashed() && ep < pe.DTU.NumEndpoints(); ep++ {
			if typ := pe.DTU.EP(ep).Type; typ != dtu.EpInvalid {
				return fmt.Errorf("crashed PE %d: endpoint %d still configured as %v", pe.ID, ep, typ)
			}
		}
	}
	return nil
}
