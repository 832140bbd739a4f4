package core

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// RestartPolicy tells the kernel supervisor how to handle the death of
// a supervised init VPE: how often to respawn it and how long to back
// off before each attempt. The zero value means "not supervised".
type RestartPolicy struct {
	// MaxRestarts bounds the respawns of one supervised VPE; zero
	// disables supervision entirely.
	MaxRestarts int
	// Backoff is the delay in cycles before the first respawn; it
	// doubles with every further restart of the same VPE (bounded
	// exponential backoff, all on the deterministic sim clock). Zero
	// picks DefaultRestartBackoff.
	Backoff sim.Time
}

// supervised is the kernel's restart record for one supervised init
// VPE across all of its incarnations.
type supervised struct {
	name     string
	peType   tile.CoreType
	prog     Program
	policy   RestartPolicy
	restarts int
	vpe      *VPE

	// region is the stable DRAM region pinned for this service (set on
	// its first ReqMemStable): every incarnation gets the same bytes
	// back, which is what makes the m3fs journal survive a crash.
	region struct {
		addr, size int
		valid      bool
	}
}

// StartInitSupervised is StartInit plus a restart policy: when the
// death watchdog reaps the VPE, the supervisor respawns the same
// program under the same name on a spare PE (the pool is whatever PEs
// of the right type are still unallocated), after the policy's
// backoff. A service the program re-registers then carries a bumped
// epoch, which fences every stale request path (docs/RECOVERY.md).
//
// Without fault injection the watchdog never runs, no VPE is ever
// reaped, and supervision adds zero scheduled events — the policy is
// pure bookkeeping until a crash actually happens.
func (k *Kernel) StartInitSupervised(name string, peType tile.CoreType, prog Program, policy RestartPolicy) (*VPE, error) {
	if policy.MaxRestarts < 0 {
		return nil, errors.New("core: negative restart budget")
	}
	vpe, err := k.StartInit(name, peType, prog)
	if err != nil {
		return nil, err
	}
	if policy.MaxRestarts > 0 {
		if policy.Backoff <= 0 {
			policy.Backoff = DefaultRestartBackoff
		}
		k.supervised[vpe.ID] = &supervised{
			name: name, peType: peType, prog: prog, policy: policy, vpe: vpe,
		}
	}
	return vpe, nil
}

// serviceCurrent reports whether svc is still the live registration of
// its name: same object, same epoch. callService checks it before every
// call, so requests belonging to a dead incarnation are fenced off
// instead of being delivered to its successor.
func (k *Kernel) serviceCurrent(svc *ServiceObj) bool {
	cur, ok := k.services[svc.Name]
	return ok && cur == svc && cur.Epoch == svc.Epoch
}

// ServiceEpoch returns the epoch of the live registration of name, or
// zero when no such service is currently registered. Observability for
// tests and tools; the kernel's own fencing goes through serviceCurrent.
func (k *Kernel) ServiceEpoch(name string) uint64 {
	if svc, ok := k.services[name]; ok {
		return svc.Epoch
	}
	return 0
}

// maybeRespawn is the supervisor hook at the end of a reap: if the
// dead VPE was supervised and has restart budget left, schedule its
// respawn after the (exponentially growing) backoff. The respawn
// itself runs as a kernel helper activity so its costs serialize on
// the kernel CPU like every other kernel action.
func (k *Kernel) maybeRespawn(vpe *VPE) {
	sup, ok := k.supervised[vpe.ID]
	if !ok {
		return
	}
	delete(k.supervised, vpe.ID)
	if sup.restarts >= sup.policy.MaxRestarts {
		k.traceRespawn(obs.RespawnExhausted, sup, 0)
		return
	}
	sup.restarts++
	delay := sup.policy.Backoff << (sup.restarts - 1)
	k.Plat.Eng.Spawn("kernel-respawn", func(p *sim.Process) {
		p.Sleep(delay)
		pe := k.allocPE(sup.peType)
		if pe == nil {
			k.traceRespawn(obs.RespawnNoPE, sup, 0)
			return
		}
		k.compute(p, CostRespawn)
		nv := k.newVPE(sup.name, pe)
		sup.vpe = nv
		k.supervised[nv.ID] = sup
		k.installStdEPs(p, nv)
		nv.started = true
		k.Stats.ServiceRestarts++
		if tr := k.Plat.Obs; tr.On() {
			k.mSupervisorRestarts.Inc()
		}
		k.traceRespawn(obs.RespawnRestarted, sup, nv.ID)
		pe.Start(nv.Name, sup.prog)
	})
}

// traceRespawn records one supervisor decision as an obs.EvRespawn.
func (k *Kernel) traceRespawn(outcome uint64, sup *supervised, arg uint64) {
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvRespawn, Arg0: outcome, Arg1: uint64(sup.restarts), Arg2: arg})
	}
}

// stableRegionFor returns the pinned region for a supervised VPE
// requesting stable memory. The first matching request allocates and
// pins; every later incarnation asking for the same size gets the
// identical region back, contents untouched. Returns ok=false when the
// VPE is not supervised (plain allocation applies).
func (k *Kernel) stableRegionFor(vpe *VPE, size int) (addr int, reuse, ok bool) {
	sup, sok := k.supervised[vpe.ID]
	if !sok {
		return 0, false, false
	}
	if sup.region.valid && sup.region.size == size {
		return sup.region.addr, true, true
	}
	if sup.region.valid {
		// Size changed across incarnations: treat as a fresh pin so the
		// caller's view stays consistent (the old region stays pinned —
		// leaked deliberately, a supervisor restart is not an allocator
		// stress path).
		sup.region.valid = false
	}
	a, aok := k.dram.alloc(size)
	if !aok {
		return 0, false, false
	}
	sup.region.addr, sup.region.size, sup.region.valid = a, size, true
	return a, false, true
}
