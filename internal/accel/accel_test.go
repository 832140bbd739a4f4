package accel_test

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/workload"
)

func TestFFTChainProducesOutput(t *testing.T) {
	b := accel.FFTChain(true)
	var size int64
	run := b.Run
	b.Run = func(os workload.OS) error {
		if err := run(os); err != nil {
			return err
		}
		st, err := os.Stat("/fft.out")
		size = st.Size
		return err
	}
	r, err := bench.Scenario{Workload: b, M3Options: bench.M3Options{FFTPEs: 1, ExtraPEs: -1}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if size != accel.InputSize {
		t.Fatalf("fft output = %d bytes, want %d", size, accel.InputSize)
	}
	if err := r.FS.FS().CheckInvariants(); err != nil {
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
	lx := &bench.LxModel{Profile: linuxos.ProfileXtensa}
	r, err := bench.Scenario{Workload: accel.FFTChain(false), Lx: lx}.Run()
	if err != nil {
		t.Fatal(err)
	}
	bd := r.Breakdown()
	if bd.Total == 0 || bd.App == 0 {
		t.Fatalf("breakdown = %+v", bd)
	}
	// On Linux there is no accelerator to reach: requesting one runs
	// the software path on the same core.
	r, err = bench.Scenario{Workload: accel.FFTChain(true), Lx: lx}.Run()
	if err != nil {
		t.Fatal(err)
	}
	bd2 := r.Breakdown()
	if bd2.App != bd.App {
		t.Fatalf("Linux app cycles differ between variants: %d vs %d", bd2.App, bd.App)
	}
}
