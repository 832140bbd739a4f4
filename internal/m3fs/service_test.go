package m3fs_test

import (
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/workload"
)

// TestOpenDirForWritingFails: m3fs refuses to open a directory for
// writing or truncation with the typed ErrIsDir.
func TestOpenDirForWritingFails(t *testing.T) {
	b := workload.Benchmark{Name: "dir", PEs: 1,
		Setup: func(os workload.OS) error { return os.Mkdir("/d") },
		Run: func(os workload.OS) error {
			fs := os.(*workload.M3OS).FS
			for _, flags := range []m3.OpenFlags{m3.OpenWrite, m3.OpenRead | m3.OpenTrunc, m3.OpenWrite | m3.OpenCreate} {
				if _, err := fs.Open("/d", flags); !errors.Is(err, kif.ErrIsDir) {
					t.Errorf("open of a directory with flags %#x: err %v, want %v", flags, err, kif.ErrIsDir)
				}
			}
			return nil
		}}
	r, err := bench.Scenario{Workload: b}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FS.FS().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
