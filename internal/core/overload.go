package core

import (
	"repro/internal/kif"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/sim"
)

// OverloadConfig arms the kernel's overload-control layer
// (docs/OVERLOAD.md): a per-service shed controller fed by the service
// DTU's receive queue depth (the same quantity the registry samples as
// dtu_rx_queued), and a per-service circuit breaker tripped by
// consecutive deadline misses. The budget on kernel→service calls is
// the kernel DTU's (DTU.CallDeadline), armed with the other PEs' by
// the harness. All default off; a kernel without EnableOverload
// schedules not a single extra event and keeps bit-identical traces.
type OverloadConfig struct {
	// Shed parameterizes the per-service shed controllers; the zero
	// value sheds nothing.
	Shed overload.ShedConfig
	// Breaker parameterizes the per-service circuit breakers; zero
	// fields pick the overload package defaults.
	Breaker overload.BreakerConfig
}

// kernelOverload is the armed overload state: per-service shed
// controllers and breakers, created lazily per service name.
type kernelOverload struct {
	cfg      OverloadConfig
	shedders map[string]*overload.Shedder
	breakers map[string]*overload.Breaker
}

func (ov *kernelOverload) shedderFor(name string) *overload.Shedder {
	s := ov.shedders[name]
	if s == nil {
		s = overload.NewShedder(ov.cfg.Shed)
		ov.shedders[name] = s
	}
	return s
}

func (ov *kernelOverload) breakerFor(name string) *overload.Breaker {
	b := ov.breakers[name]
	if b == nil {
		b = overload.NewBreaker(ov.cfg.Breaker)
		ov.breakers[name] = b
	}
	return b
}

// EnableOverload arms the kernel's overload control. It is
// harness-level policy (bench options, not internal/fault): overload
// control is a capacity experiment, not a fault model.
func (k *Kernel) EnableOverload(cfg OverloadConfig) {
	k.overload = &kernelOverload{
		cfg:      cfg,
		shedders: make(map[string]*overload.Shedder),
		breakers: make(map[string]*overload.Breaker),
	}
}

// Overload metric names (m3vet: obsname), registered lazily on
// first increment so off-or-idle runs keep identical metric snapshots.
const (
	// MCallsShed counts service calls rejected by the shed controller.
	MCallsShed = "kernel_calls_shed_total"
	// MBreakerOpens counts circuit-breaker trips.
	MBreakerOpens = "kernel_breaker_opens_total"
)

func (k *Kernel) callsShedCounter() *obs.Counter {
	if k.mCallsShed == nil && k.Plat.Obs.On() {
		k.mCallsShed = k.Plat.Obs.Metrics().Counter(MCallsShed, -1)
	}
	return k.mCallsShed
}

func (k *Kernel) breakerOpensCounter() *obs.Counter {
	if k.mBreakerOpens == nil && k.Plat.Obs.On() {
		k.mBreakerOpens = k.Plat.Obs.Metrics().Counter(MBreakerOpens, -1)
	}
	return k.mBreakerOpens
}

// admitServiceCall is the overload gate at the head of callService:
// the service's breaker first (an open breaker fails everything fast),
// then the shed controller against the service DTU's live receive
// queue depth. Returns kif.OK to admit.
func (k *Kernel) admitServiceCall(svc *ServiceObj, span obs.SpanID, pr overload.Priority) kif.Error {
	ov := k.overload
	if ov == nil {
		return kif.OK
	}
	now := k.Plat.Eng.Now()
	if !ov.breakerFor(svc.Name).Allow(now) {
		k.Stats.BreakerRejects++
		return kif.ErrOverload
	}
	depth := svc.Owner.PE.DTU.RxQueued()
	if !ov.shedderFor(svc.Name).Admit(depth, pr) {
		k.Stats.CallsShed++
		if tr := k.Plat.Obs; tr.On() {
			k.callsShedCounter().Inc()
			// The shed verdict carries the request's span so the
			// critical-path engine can attribute the fast-fail.
			tr.Emit(obs.Event{At: now, PE: int32(k.PE.Node), Layer: obs.LKernel,
				Kind: obs.EvShed, Span: span, Arg0: uint64(svc.Owner.PE.Node),
				Arg1: uint64(depth), Arg2: uint64(pr)})
		}
		return kif.ErrOverload
	}
	return kif.OK
}

// noteServiceCallOutcome feeds a completed (or failed) service call
// into the service's breaker. A deadline miss is a Failure; an
// admission refusal by the service DTU is not — the service protected
// itself and answered promptly, which is evidence of control, not of
// collapse.
func (k *Kernel) noteServiceCallOutcome(svc *ServiceObj, outcome kif.Error) {
	ov := k.overload
	if ov == nil {
		return
	}
	now := k.Plat.Eng.Now()
	br := ov.breakerFor(svc.Name)
	switch outcome {
	case kif.OK:
		br.Success(now)
	case kif.ErrTimeout:
		before := br.Opens()
		br.Failure(now)
		if br.Opens() > before {
			if tr := k.Plat.Obs; tr.On() {
				k.breakerOpensCounter().Inc()
				tr.Emit(obs.Event{At: now, PE: int32(k.PE.Node), Layer: obs.LKernel,
					Kind: obs.EvBreaker, Arg0: uint64(svc.Owner.PE.Node), Arg1: br.Opens()})
			}
		}
	}
}

// respawnHold returns the extra delay the supervisor should add before
// respawning name: while the service's breaker is open, clients are
// being failed fast anyway, and restarting into the still-standing
// overload would only feed the storm (restart-storm suppression).
func (k *Kernel) respawnHold(name string) sim.Time {
	ov := k.overload
	if ov == nil {
		return 0
	}
	br := ov.breakers[name]
	if br == nil {
		return 0
	}
	return br.OpenRemaining(k.Plat.Eng.Now())
}

// BreakerState reports the breaker state for a service name
// (observability for tests and the harness). The second return is
// false when overload control is off or the service has no breaker
// yet.
func (k *Kernel) BreakerState(name string) (overload.State, bool) {
	ov := k.overload
	if ov == nil {
		return overload.StateClosed, false
	}
	br := ov.breakers[name]
	if br == nil {
		return overload.StateClosed, false
	}
	return br.State(k.Plat.Eng.Now()), true
}
