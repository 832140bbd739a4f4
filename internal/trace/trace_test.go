package trace_test

import (
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/linuxos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// linux selects the Linux model (Lx-$); a nil selector runs on M3.
var linux = &bench.LxModel{Profile: linuxos.ProfileXtensa}

// empty is a benchmark with nothing to set up.
var empty = workload.Benchmark{Name: "empty", PEs: 1, Setup: func(workload.OS) error { return nil }}

// runOn runs b's setup and then fn in b's place on the OS model lx
// selects and returns fn's duration.
func runOn(lx *bench.LxModel, b workload.Benchmark, fn func(os workload.OS) error) (sim.Time, error) {
	b.Run = fn
	r, err := bench.Scenario{Workload: b, Lx: lx}.Run()
	if err != nil {
		return 0, err
	}
	return r.Outcomes[0].RunTime, nil
}

// recordOnLinux runs b's setup natively and records its run phase.
func recordOnLinux(t *testing.T, b workload.Benchmark) *trace.Trace {
	t.Helper()
	var tr *trace.Trace
	if _, err := runOn(linux, b, func(os workload.OS) error {
		rec := trace.NewRecorder(os)
		tr = rec.T
		return b.Run(rec)
	}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// timeOnM3 runs fn after b.Setup on a fresh M3 system and returns its
// duration.
func timeOnM3(t *testing.T, b workload.Benchmark, fn func(os workload.OS) error) sim.Time {
	t.Helper()
	took, err := runOn(nil, b, fn)
	if err != nil {
		t.Fatal(err)
	}
	return took
}

func TestReplayMatchesNativeRun(t *testing.T) {
	// The paper's methodology: record the benchmark's syscalls on
	// Linux, replay them on M3, and take the replay as the M3 result.
	// For that to be sound, replaying must cost about the same as
	// running natively on M3. tar avoids sendfile asymmetry by being
	// replayed with the read+write fallback — use find and sqlite,
	// whose operation streams are identical on both systems.
	for _, name := range []string{"find", "sqlite"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := recordOnLinux(t, b)
		if tr.Len() == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		native := timeOnM3(t, b, func(os workload.OS) error { return b.Run(os) })
		replayed := timeOnM3(t, b, func(os workload.OS) error { return trace.Replay(os, tr) })
		ratio := float64(replayed) / float64(native)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: replay %d vs native %d cycles (ratio %.2f), want within 10%%",
				name, replayed, native, ratio)
		}
	}
}

func TestReplayTarProducesArchive(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordOnLinux(t, b)
	_ = timeOnM3(t, b, func(os workload.OS) error {
		if err := trace.Replay(os, tr); err != nil {
			return err
		}
		st, err := os.Stat("/archive.tar")
		if err != nil {
			return err
		}
		if st.Size < 1<<20 {
			t.Errorf("replayed archive only %d bytes", st.Size)
		}
		return nil
	})
}

func TestMarshalRoundTrip(t *testing.T) {
	b, err := workload.ByName("find")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordOnLinux(t, b)
	data := tr.Marshal()
	back, err := trace.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost records: %d vs %d", back.Len(), tr.Len())
	}
	for i := range tr.Records {
		if tr.Records[i] != back.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, tr.Records[i], back.Records[i])
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, paths []string, sizes []uint16) bool {
		tr := &trace.Trace{}
		for i, k := range kinds {
			r := trace.Record{
				Kind: trace.Kind(k%11 + 1),
				FD:   i,
			}
			if len(paths) > 0 {
				r.Path = paths[i%len(paths)]
			}
			if len(sizes) > 0 {
				r.Size = int(sizes[i%len(sizes)])
			}
			tr.Records = append(tr.Records, r)
		}
		back, err := trace.Unmarshal(tr.Marshal())
		if err != nil {
			return false
		}
		if back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Records {
			if tr.Records[i] != back.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := trace.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt trace must fail to decode")
	}
	tr := &trace.Trace{Records: []trace.Record{{Kind: trace.KCompute, Cycles: 5}}}
	data := tr.Marshal()
	if _, err := trace.Unmarshal(data[:len(data)-4]); err == nil {
		t.Fatal("truncated trace must fail to decode")
	}
}

func TestReplayUnknownFD(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{{Kind: trace.KRead, FD: 99, Size: 16}}}
	if _, err := runOn(linux, empty, func(os workload.OS) error { return trace.Replay(os, tr) }); err == nil {
		t.Fatal("replay with unknown fd must fail")
	}
}

func TestRecorderRefusesPipes(t *testing.T) {
	if _, err := runOn(linux, empty, func(os workload.OS) error {
		_, _, err := trace.NewRecorder(os).PipeFromChild("x", func(workload.OS, workload.File) {})
		return err
	}); err == nil {
		t.Fatal("recording a pipe must fail")
	}
}

func TestReplaySeekAndMeta(t *testing.T) {
	// A hand-built trace covering seek, mkdir, readdir, stat, unlink —
	// replayed on both OS models.
	tr := &trace.Trace{Records: []trace.Record{
		{Kind: trace.KMkdir, Path: "/d"},
		{Kind: trace.KOpen, FD: 1, Path: "/d/f", Flags: workload.Write | workload.Create},
		{Kind: trace.KWrite, FD: 1, Size: 8192},
		{Kind: trace.KSeek, FD: 1, Off: 100, Whence: 0},
		{Kind: trace.KWrite, FD: 1, Size: 16},
		{Kind: trace.KClose, FD: 1},
		{Kind: trace.KStat, Path: "/d/f"},
		{Kind: trace.KReadDir, Path: "/d"},
		{Kind: trace.KCompute, Cycles: 1234},
		{Kind: trace.KUnlink, Path: "/d/f"},
	}}
	replay := func(os workload.OS) error { return trace.Replay(os, tr) }
	if _, err := runOn(linux, empty, replay); err != nil {
		t.Fatalf("linux replay: %v", err)
	}
	if took := timeOnM3(t, empty, replay); took < 1234 {
		t.Fatalf("m3 replay took %d cycles, must include the compute record", took)
	}
}

func TestKindStrings(t *testing.T) {
	if trace.KOpen.String() != "open" || trace.KCopyRange.String() != "copyrange" {
		t.Fatal("kind names broken")
	}
	if trace.Kind(200).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}
