package bench_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/workload"
)

// fileOp is one operation on an open file.
type fileOp = func(f workload.SeekableFile) (any, error)

// probe runs the probe's steps in order on os and returns their names
// and, per step, the value the model reports and whether it failed (an
// EOF is a value, not a failure).
func probe(os workload.OS) (names, log []string) {
	note := func(name string) func(any, error) {
		return func(v any, err error) {
			if err == io.EOF {
				v, err = fmt.Sprint(v, " EOF"), nil
			}
			names = append(names, name)
			log = append(log, fmt.Sprintf("%v failed=%v", v, err != nil))
		}
	}
	// file opens path, runs op on it and closes it; the first error wins.
	file := func(path string, flags workload.OpenFlags, op fileOp) (any, error) {
		f, err := os.Open(path, flags)
		if err != nil {
			return nil, err
		}
		v, err := op(f.(workload.SeekableFile))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return v, err
	}
	nop := func(workload.SeekableFile) (any, error) { return nil, nil }
	read := func(f workload.SeekableFile) (any, error) { return f.Read(make([]byte, 16)) }
	write := func(n int) fileOp {
		return func(f workload.SeekableFile) (any, error) { return f.Write(make([]byte, n)) }
	}

	note("mkdir")(nil, os.Mkdir("/d"))
	note("mkdir twice")(nil, os.Mkdir("/d"))
	note("create")(file("/f", workload.Write|workload.Create, nop))
	note("write past the end")(file("/f", workload.Write, func(f workload.SeekableFile) (any, error) {
		if _, err := f.Seek(10000, io.SeekStart); err != nil {
			return nil, err
		}
		return f.Write([]byte{1})
	}))
	note("stat after the write")(os.Stat("/f"))
	note("read a write-only file")(file("/f", workload.Write, read))
	note("write a read-only file")(file("/f", workload.Read, write(16)))
	note("truncate")(file("/f", workload.Write|workload.Trunc, nop))
	note("stat after truncate")(os.Stat("/f"))
	note("create in a directory")(file("/d/x", workload.Write|workload.Create, nop))
	note("unlink a non-empty directory")(nil, os.Unlink("/d"))
	note("unlink")(nil, os.Unlink("/d/x"))
	note("unlink twice")(nil, os.Unlink("/d/x"))
	note("readdir the root")(os.ReadDir("/"))
	note("readdir a file")(os.ReadDir("/f"))
	note("mkdir under a file")(nil, os.Mkdir("/f/sub"))
	note("open a directory for writing")(file("/d", workload.Write, write(4096)))
	note("stat the directory")(os.Stat("/d"))
	note("invalid whence")(file("/f", workload.Read, func(f workload.SeekableFile) (any, error) { return f.Seek(0, 7) }))
	note("read a directory")(file("/d", workload.Read, read))
	return names, log
}

// probeDiffers lists the steps on which the two models legitimately
// disagree, each with its reason.
var probeDiffers = map[string]string{
	"read a directory": "M3 reads a directory opened read-only as an empty file (EOF); Linux refuses the read",
}

// TestOSModelsAgree runs the probe through the runner on M3 and on Lx-$
// and compares the two logs step by step.
func TestOSModelsAgree(t *testing.T) {
	var names []string
	run := func(lx *bench.LxModel) (log []string) {
		b := workload.Benchmark{Name: "probe", PEs: 1,
			Setup: func(workload.OS) error { return nil },
			Run:   func(os workload.OS) error { names, log = probe(os); return nil }}
		if _, err := (bench.Scenario{Workload: b, Lx: lx}).Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	m3, lx := run(nil), run(&bench.LxModel{Profile: linuxos.ProfileXtensa})
	for i, name := range names {
		_, differs := probeDiffers[name]
		switch {
		case differs && m3[i] == lx[i]:
			t.Errorf("%s: both models give %s; drop it from probeDiffers", name, m3[i])
		case !differs && m3[i] != lx[i]:
			t.Errorf("%s: M3 %s, Linux %s", name, m3[i], lx[i])
		}
	}
}
