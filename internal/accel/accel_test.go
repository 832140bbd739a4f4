package accel_test

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/linuxos"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

func TestFFTChainProducesOutput(t *testing.T) {
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Config{PEs: []tile.CoreType{
		tile.CoreXtensa, tile.CoreXtensa, tile.CoreXtensa, tile.CoreFFT,
	}})
	kern := core.Boot(plat, 0)
	var svc *m3fs.Service
	if _, err := kern.StartInit("m3fs", "", m3fs.Program(kern, m3fs.Config{}, func(s *m3fs.Service) { svc = s })); err != nil {
		t.Fatal(err)
	}
	var size int64
	_, err := kern.StartInit("app", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		os, err := workload.NewM3OS(env)
		if err != nil {
			t.Error(err)
			return
		}
		if err := accel.FFTChain(true).Run(os); err != nil {
			t.Error(err)
			return
		}
		st, err := os.Stat("/fft.out")
		if err != nil {
			t.Error(err)
			return
		}
		size = st.Size
		env.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if size != accel.InputSize {
		t.Fatalf("fft output = %d bytes, want %d", size, accel.InputSize)
	}
	if svc == nil {
		t.Fatal("m3fs not ready")
	}
	if err := svc.FS().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAcceleratorBeatsSoftware(t *testing.T) {
	soft, err := bench.Scenario{Workload: accel.FFTChain(false)}.Run()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := bench.Scenario{Workload: accel.FFTChain(true), M3Options: bench.M3Options{FFTPEs: 1, ExtraPEs: -1}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(soft.Breakdown().Total) / float64(fast.Breakdown().Total)
	if speedup < 8 {
		t.Fatalf("accelerator speedup = %.1fx, want >= 8x end to end", speedup)
	}
}

func TestIdenticalParentCodeBothVariants(t *testing.T) {
	// The parent's generation work is identical in both variants: the
	// app cycles differ only by the child's FFT cost ratio (~30x).
	softGen := uint64(accel.InputSize) * accel.GenPerByte
	soft := softGen + uint64(accel.InputSize)*accel.SoftFFTPerByte
	fast := softGen + uint64(accel.InputSize)*accel.AccelFFTPerByte
	if ratio := float64(accel.SoftFFTPerByte) / float64(accel.AccelFFTPerByte); ratio != 30 {
		t.Fatalf("FFT cost ratio = %.0f, want 30 (the paper's factor)", ratio)
	}
	if soft <= fast {
		t.Fatal("software variant must compute more")
	}
}

func TestFFTChainOnLinux(t *testing.T) {
	bd, err := bench.RunLx(accel.FFTChain(false), linuxos.ProfileXtensa, false)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total == 0 || bd.App == 0 {
		t.Fatalf("breakdown = %+v", bd)
	}
	// On Linux there is no accelerator to reach: requesting one runs
	// the software path on the same core.
	bd2, err := bench.RunLx(accel.FFTChain(true), linuxos.ProfileXtensa, false)
	if err != nil {
		t.Fatal(err)
	}
	if bd2.App != bd.App {
		t.Fatalf("Linux app cycles differ between variants: %d vs %d", bd2.App, bd.App)
	}
}
