package m3fs_test

import (
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/m3fs"
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

// runM3 runs fn as the run phase of a one-instance M3 scenario, with
// setup making /d/x and the regular file /f, and checks the file
// system's invariants afterwards.
func runM3(t *testing.T, fn func(fs *m3fs.Client)) {
	t.Helper()
	b := workload.Benchmark{Name: "probe", PEs: 1,
		Setup: func(os workload.OS) error {
			if err := os.Mkdir("/d"); err != nil {
				return err
			}
			for _, p := range []string{"/d/x", "/f"} {
				f, err := os.Open(p, workload.Write|workload.Create)
				if err != nil {
					return err
				}
				if _, err := f.Write([]byte("data")); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			return nil
		},
		Run: func(os workload.OS) error { fn(os.(*workload.M3OS).FS); return nil }}
	r, err := bench.Scenario{Workload: b}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FS.FS().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadWriteOnlyFileFails: a file opened without OpenRead refuses
// reads with ErrNoPerm, and a read-write open still reads.
func TestReadWriteOnlyFileFails(t *testing.T) {
	runM3(t, func(fs *m3fs.Client) {
		for _, tc := range []struct {
			flags m3.OpenFlags
			want  error
		}{{m3.OpenWrite, kif.ErrNoPerm}, {m3.OpenRW, nil}} {
			f, err := fs.Open("/f", tc.flags)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Read(make([]byte, 4)); !errors.Is(err, tc.want) {
				t.Errorf("read with flags %#x: err %v, want %v", tc.flags, err, tc.want)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestNamespaceErrorKinds: unlink of a non-empty directory fails with
// ErrNotEmpty, mkdir under a regular file with ErrNotDir, and the
// other namespace errors keep their kinds.
func TestNamespaceErrorKinds(t *testing.T) {
	runM3(t, func(fs *m3fs.Client) {
		for _, tc := range []struct {
			name string
			err  error
			want kif.Error
		}{
			{"unlink a non-empty directory", fs.Unlink("/d"), kif.ErrNotEmpty},
			{"mkdir under a file", fs.Mkdir("/f/sub"), kif.ErrNotDir},
			{"mkdir below a file", fs.Mkdir("/f/sub/deeper"), kif.ErrNotDir},
			{"mkdir twice", fs.Mkdir("/d"), kif.ErrExists},
			{"mkdir in a missing directory", fs.Mkdir("/nope/sub"), kif.ErrNoSuchFile},
			{"unlink a missing file", fs.Unlink("/d/nope"), kif.ErrNoSuchFile},
		} {
			if !errors.Is(tc.err, tc.want) {
				t.Errorf("%s: err %v, want %v", tc.name, tc.err, tc.want)
			}
		}
	})
}
