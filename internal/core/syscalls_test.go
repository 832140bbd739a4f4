package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/tile"
)

// TestCreateVPEOccupiedMemSelUndoes: a createvpe whose memory selector
// is taken fails, and the kernel undoes the rest of the call. The VPE
// selector stays free, no child VPE is left behind, and the PE is not
// held, so the next createvpe gets the same PE (the platform has only
// one free PE).
func TestCreateVPEOccupiedMemSelUndoes(t *testing.T) {
	eng, _, kern := bootSystem(3)
	var (
		vpeSel       kif.CapSel
		secondPE     = -1
		createErr    error
		createdAfter bool
	)
	parent, err := kern.StartInit("parent", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		mg, err := env.ReqMem(4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
			return
		}
		vpeSel = env.AllocSel()
		var o kif.OStream
		o.Op(kif.SysCreateVPE).Sel(vpeSel).Sel(mg.Sel()).Str("child").Str("")
		_, createErr = env.Syscall(&o)
		vpe, err := env.NewVPE("child", "")
		if err != nil {
			t.Errorf("second createvpe: %v", err)
			return
		}
		createdAfter, secondPE = true, vpe.PEID
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !errors.Is(createErr, kif.ErrExists) {
		t.Fatalf("createvpe over an occupied memory selector = %v, want %v", createErr, kif.ErrExists)
	}
	if _, err := parent.Caps.Get(vpeSel, core.CapInvalid); err != kif.ErrNoSuchCap {
		t.Fatalf("VPE selector %d after the failed createvpe: %v, want it free", vpeSel, err)
	}
	if !createdAfter || secondPE != 2 {
		t.Fatalf("second createvpe got PE %d (created %v), want PE 2, the one the failed call took", secondPE, createdAfter)
	}
	if n := len(kern.VPEs()); n != 2 {
		t.Fatalf("kernel holds %d VPEs, want 2 (parent and the second child)", n)
	}
}
