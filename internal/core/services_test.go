package core

import (
	"testing"

	"repro/internal/kif"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// TestCallServiceRefusesSupersededService calls a service through a
// ServiceObj whose registration has since been replaced by a newer
// epoch. callService must refuse it before anything is counted, traced
// or sent: the fence holds for every caller, not only for those that
// remember to check.
func TestCallServiceRefusesSupersededService(t *testing.T) {
	eng := sim.NewEngine()
	cfg := tile.Homogeneous(2)
	starts := 0
	cfg.Obs = obs.New(obs.Options{Sink: func(ev obs.Event) {
		if ev.Kind == obs.EvSvcCallStart {
			starts++
		}
	}})
	k := Boot(tile.NewPlatform(eng, cfg), 0)
	stale := &ServiceObj{Name: "echo", Epoch: 1, sendEP: kif.KFirstSrvEP}
	k.services["echo"] = &ServiceObj{Name: "echo", Epoch: 2, sendEP: kif.KFirstSrvEP}
	var got kif.Error
	eng.Spawn("caller", func(p *sim.Process) {
		_, got = k.callService(p, stale, []byte{byte(kif.ServOpen)}, 0)
	})
	eng.Run()
	if got != kif.ErrNoSuchService {
		t.Errorf("callService on a superseded service = %v, want %v", got, kif.ErrNoSuchService)
	}
	if k.Stats.ServiceCalls != 0 {
		t.Errorf("Stats.ServiceCalls = %d, want 0: the call was admitted", k.Stats.ServiceCalls)
	}
	if starts != 0 {
		t.Errorf("%d EvSvcCallStart events, want 0", starts)
	}
}
