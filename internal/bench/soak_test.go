package bench

import (
	"fmt"
	"testing"

	"repro/internal/m3fs"
	"repro/internal/workload"
)

// TestSoakAllBenchmarksOneSystem runs every application benchmark
// back to back inside a single booted system — one kernel, one m3fs,
// reused PEs — and checks the filesystem invariants after each. This
// is the long-haul integration test: capability tables, PE allocation,
// sessions, and the DRAM allocator must all stay consistent across
// many create/exit cycles.
func TestSoakAllBenchmarksOneSystem(t *testing.T) {
	var r *Result
	soak := workload.Benchmark{Name: "soak", PEs: 2,
		Setup: func(workload.OS) error { return nil },
		Run: func(wos workload.OS) error {
			os := wos.(*workload.M3OS)
			for round := 0; round < 2; round++ {
				for _, b := range workload.All() {
					os.Prefix = fmt.Sprintf("/r%d-%s", round, b.Name)
					if err := os.Mkdir(""); err != nil {
						return fmt.Errorf("%s round %d mkdir: %w", b.Name, round, err)
					}
					if err := b.Setup(os); err != nil {
						return fmt.Errorf("%s round %d setup: %w", b.Name, round, err)
					}
					if err := b.Run(os); err != nil {
						return fmt.Errorf("%s round %d run: %w", b.Name, round, err)
					}
					if err := r.FS.FS().CheckInvariants(); err != nil {
						return fmt.Errorf("%s round %d fsck: %w", b.Name, round, err)
					}
				}
			}
			return nil
		}}
	// Booted and run in two steps, so the program can reach the m3fs
	// service handle while it runs.
	sc := Scenario{Workload: soak, M3Options: M3Options{
		ExtraPEs: 2, DRAMSize: 256 << 20, FS: m3fs.Config{RegionSize: 128 << 20}}}
	r, err := sc.boot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.run(r); err != nil {
		t.Fatal(err)
	}
	var drops uint64
	for _, pe := range r.Plat.PEs {
		drops += pe.DTU.Stats.MsgsDropped
	}
	if drops > 0 {
		t.Fatalf("%d messages dropped during the soak", drops)
	}
}
