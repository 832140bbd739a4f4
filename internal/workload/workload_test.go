package workload_test

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/workload"
)

// m3 runs fn on M3 with appPEs application PEs; lx runs it on Lx-$.
var (
	lx = &bench.LxModel{Profile: linuxos.ProfileXtensa}
	m3 *bench.LxModel
)

// runOn executes fn as the run phase of a benchmark on the OS model
// sys selects; appPEs sizes the M3 platform.
func runOn(t *testing.T, sys *bench.LxModel, appPEs int, fn func(os workload.OS) error) {
	t.Helper()
	b := workload.Benchmark{Name: "test", PEs: appPEs, Setup: func(workload.OS) error { return nil }, Run: fn}
	if _, err := (bench.Scenario{Workload: b, Lx: sys}).Run(); err != nil {
		t.Fatal(err)
	}
}

// runOnBoth executes fn on M3 and on Lx-$.
func runOnBoth(t *testing.T, appPEs int, fn func(os workload.OS) error) {
	t.Helper()
	runOn(t, m3, appPEs, fn)
	runOn(t, lx, appPEs, fn)
}

// runBench runs setup+run and verify on one OS handle.
func runBench(b workload.Benchmark, os workload.OS) error {
	if err := b.Setup(os); err != nil {
		return err
	}
	return b.Run(os)
}

// readAll reads a whole file through the workload interface.
func readAll(os workload.OS, path string) ([]byte, error) {
	f, err := os.Open(path, workload.Read)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, rerr := f.Read(buf)
		out = append(out, buf[:n]...)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return out, nil
			}
			return out, rerr
		}
	}
}

// verifyCatTr checks that the output file is the input with a->b.
func verifyCatTr(os workload.OS) error {
	out, err := readAll(os, "/output.txt")
	if err != nil {
		return err
	}
	if len(out) != 64<<10 {
		return fmt.Errorf("cat+tr output size %d", len(out))
	}
	for i, c := range out {
		if c != 'b' {
			return fmt.Errorf("cat+tr byte %d = %q", i, c)
		}
	}
	return nil
}

// verifyUntar checks every extracted file against its source.
func verifyUntar(os workload.OS) error {
	srcs, err := os.ReadDir("/src")
	if err != nil {
		return err
	}
	if len(srcs) != 6 {
		return fmt.Errorf("src files = %d", len(srcs))
	}
	for _, name := range srcs {
		want, err := readAll(os, "/src/"+name)
		if err != nil {
			return err
		}
		got, err := readAll(os, "/dst/"+name)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d bytes, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s: byte %d differs", name, i)
			}
		}
	}
	return nil
}

func TestCatTrCorrectOnBothOSes(t *testing.T) {
	b := workload.CatTr()
	runOnBoth(t, b.PEs+1, func(os workload.OS) error {
		if err := runBench(b, os); err != nil {
			return err
		}
		return verifyCatTr(os)
	})
}

func TestTarUntarRoundTripOnBothOSes(t *testing.T) {
	b := workload.Untar() // setup includes tar
	runOnBoth(t, b.PEs, func(os workload.OS) error {
		if err := runBench(b, os); err != nil {
			return err
		}
		return verifyUntar(os)
	})
}

func TestFindOnBothOSes(t *testing.T) {
	b := workload.Find()
	runOnBoth(t, b.PEs, func(os workload.OS) error { return runBench(b, os) })
}

func TestSqliteOnBothOSes(t *testing.T) {
	b := workload.Sqlite()
	runOnBoth(t, b.PEs, func(os workload.OS) error { return runBench(b, os) })
}

func TestPrefixNamespaces(t *testing.T) {
	// Two prefixed instances of tar must not interfere.
	b := workload.Tar()
	runOn(t, m3, 1, func(wos workload.OS) error {
		os := wos.(*workload.M3OS)
		for _, prefix := range []string{"/a", "/b"} {
			os.Prefix = prefix
			if err := os.Mkdir(""); err != nil {
				return err
			}
			if err := runBench(b, os); err != nil {
				return err
			}
			st, err := os.Stat("/archive.tar")
			if err != nil {
				return err
			}
			if st.Size < 1<<20 {
				return fmt.Errorf("%s archive too small: %d", prefix, st.Size)
			}
		}
		return nil
	})
}

func TestByName(t *testing.T) {
	if _, err := workload.ByName("tar"); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
	if got := len(workload.All()); got != 5 {
		t.Fatalf("All() = %d benchmarks, want 5", got)
	}
}

// TestThreeStagePipeline chains gen -> transform -> sink across three
// processes/VPEs with two pipes: the filter-chain shape the paper's
// introduction motivates, here with a nested child creating its own
// child (transitive VPE creation and capability delegation on M3).
func TestThreeStagePipeline(t *testing.T) {
	const total = 16 << 10
	run := func(os workload.OS) error {
		// Stage 2 (sink) is created by stage 1 (transform), which is
		// created by the parent (generator).
		w1, wait1, err := os.PipeToChild("stage1", "", func(os1 workload.OS, r1 workload.File) {
			w2, wait2, err := os1.PipeToChild("stage2", "", func(os2 workload.OS, r2 workload.File) {
				out, err := os2.Open("/chain.out", workload.Write|workload.Create|workload.Trunc)
				if err != nil {
					return
				}
				_, _ = workload.CopyAll(os2, out, r2, 2048)
				_ = out.Close()
			})
			if err != nil {
				return
			}
			buf := make([]byte, 2048)
			for {
				n, rerr := r1.Read(buf)
				if n > 0 {
					os1.Compute(uint64(n)) // the transform
					for i := 0; i < n; i++ {
						buf[i] ^= 0x5a
					}
					if _, werr := w2.Write(buf[:n]); werr != nil {
						return
					}
				}
				if rerr != nil {
					break
				}
			}
			_ = w2.Close()
			wait2()
		})
		if err != nil {
			return err
		}
		chunk := make([]byte, 2048)
		for i := range chunk {
			chunk[i] = byte(i)
		}
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := w1.Write(chunk); err != nil {
				return err
			}
		}
		if err := w1.Close(); err != nil {
			return err
		}
		wait1()
		st, err := os.Stat("/chain.out")
		if err != nil {
			return err
		}
		if st.Size != total {
			return fmt.Errorf("chain output = %d bytes, want %d", st.Size, total)
		}
		out, err := readAll(os, "/chain.out")
		if err != nil {
			return err
		}
		for i := 0; i < 2048; i++ {
			if out[i] != byte(i)^0x5a {
				return fmt.Errorf("byte %d not transformed: %d", i, out[i])
			}
		}
		return nil
	}
	// M3: parent + 2 child VPEs = 3 app PEs.
	runOnBoth(t, 3, run)
}

// TestCopyRangeFallbacks: sendfile only applies to regular files; pipe
// ends and the M3 adapter fall back to read+write.
func TestCopyRangeFallbacks(t *testing.T) {
	runOn(t, lx, 1, func(os workload.OS) error {
		f1, err := os.Open("/a", workload.Write|workload.Create)
		if err != nil {
			return err
		}
		if _, err := f1.Write([]byte("12345678")); err != nil {
			return err
		}
		r, wait, err := os.PipeFromChild("w", func(cos workload.OS, w workload.File) {
			_, _ = w.Write([]byte("pipe"))
		})
		if err != nil {
			return err
		}
		// Pipe involved: CopyRange must decline.
		if _, ok, _ := os.CopyRange(f1, r, 4); ok {
			return fmt.Errorf("sendfile accepted a pipe")
		}
		buf := make([]byte, 8)
		if _, err := r.Read(buf); err != nil {
			return err
		}
		wait()
		return f1.Close()
	})
	runOn(t, m3, 1, func(os workload.OS) error {
		f1, err := os.Open("/a", workload.Write|workload.Create)
		if err != nil {
			return err
		}
		f2, err := os.Open("/b", workload.Write|workload.Create)
		if err != nil {
			return err
		}
		if _, ok, _ := os.CopyRange(f1, f2, 4); ok {
			return fmt.Errorf("M3 claims an in-kernel copy path")
		}
		_ = f1.Close()
		return f2.Close()
	})
}
