package core

import (
	"errors"
	"fmt"

	"repro/internal/dtu"
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

// reapVPE tears down a VPE whose core died: record the crash exit
// code, revoke every capability (which closes service sessions and
// releases memory, exactly like a normal exit), deconfigure every
// endpoint a revoked capability was still activated on at a *live*
// PE, and finally blanket-invalidate all endpoints of the dead PE so
// no communication right survives the crash in hardware. The PE is
// never returned to the allocator — its core is gone for good.
func (k *Kernel) reapVPE(p *sim.Process, vpe *VPE) {
	if vpe.exited {
		return
	}
	k.Stats.VPEsReaped++
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvReap, Arg0: vpe.ID, Arg1: uint64(vpe.PE.ID)})
	}
	vpe.exited = true
	vpe.exitCode = CrashExitCode
	type actRec struct {
		vpe *VPE
		ep  int
	}
	var acts []actRec
	dropped := 0
	vpe.Caps.revokeAll(func(c *Capability) {
		dropped++
		if v := c.actVPE; v != nil && !v.exited && v.epCaps[c.actEP] == c {
			if v != vpe {
				// Endpoints at the dead PE get the blanket invalidation
				// below; only survivors need a targeted one.
				acts = append(acts, actRec{v, c.actEP})
			}
			delete(v.epCaps, c.actEP)
		}
		k.onDrop(c)
	})
	k.compute(p, CostReap+CostRevokeCap*sim.Time(dropped))
	for _, a := range acts {
		k.invalidateEP(p, a.vpe.PE.Node, a.ep)
	}
	for ep := 0; ep < vpe.PE.DTU.NumEndpoints(); ep++ {
		k.invalidateEP(p, vpe.PE.Node, ep)
	}
	vpe.exitSig.Broadcast()
	k.actSig.Broadcast()
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
