package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestSmoke runs every workload for one short iteration untraced and
// one traced, verifying outputs, and checks that tracing leaves the
// simulated run unchanged.
func TestSmoke(t *testing.T) {
	for _, full := range specs {
		sp := full.smoke()
		t.Run(sp.name, func(t *testing.T) {
			in := makeInputs(sp, 7)
			plain := runIteration(sp, in, iterOpts{})
			prof := &profiler{path: filepath.Join(t.TempDir(), "cpu.pprof"), ns: make(map[string]int64)}
			traced := runIteration(sp, in, iterOpts{hostOps: true, prof: prof})
			for _, r := range []iterResult{plain, traced} {
				if r.Err != "" {
					t.Fatal(r.Err)
				}
			}
			if prof.err != nil {
				t.Fatal(prof.err)
			}
			if plain.Witness != traced.Witness || plain.SimCycles != traced.SimCycles ||
				plain.SimP99 != traced.SimP99 {
				t.Errorf("traced run differs: %+v vs %+v", traced, plain)
			}
			if plain.Events == 0 || plain.SimP50 == 0 || plain.RunNS <= 0 || plain.SetupNS <= 0 {
				t.Errorf("empty measurement: %+v", plain)
			}
			if traced.Counts["m3.open.calls"] == 0 {
				t.Error("the OS-boundary log recorded no open")
			}
		})
	}
}

// TestDefaultSeed checks the full-size workloads at the default seed
// against their recorded witnesses, and untar16's mean run time per
// instance against `m3sim -w untar -n 16`.
func TestDefaultSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	for _, sp := range specs {
		r := runIteration(sp, makeInputs(sp, defaultSeed), iterOpts{})
		if r.Err != "" {
			t.Fatalf("%s: %s", sp.name, r.Err)
		}
		if want := defaultWitness[sp.name]; r.Witness != want {
			t.Errorf("%s: witness %+v, recorded %+v", sp.name, r.Witness, want)
		}
		if sp.name != "untar16" {
			continue
		}
		out, err := exec.Command("go", "run", "repro/cmd/m3sim", "-w", "untar", "-n", "16").CombinedOutput()
		if err != nil {
			t.Fatalf("m3sim: %v\n%s", err, out)
		}
		m := regexp.MustCompile(`mean run time per instance: (\d+) cycles`).FindSubmatch(out)
		if m == nil {
			t.Fatalf("m3sim printed no mean run time:\n%s", out)
		}
		want, err := strconv.ParseUint(string(m[1]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := uint64(r.SimCycles); got != want {
			t.Errorf("untar16 sim_cycles %d, m3sim reports %d", got, want)
		}
	}
}

// TestInputs checks the generated inputs: every archive moves the
// paper's bytes in members of 60 to 500 KiB, and every tree has 40
// items.
func TestInputs(t *testing.T) {
	total := 0
	for _, s := range paperTarSizes {
		total += s
	}
	for seed := uint64(0); seed < 50; seed++ {
		for c := 0; c < 4; c++ {
			sum := 0
			for _, s := range tarSizes(seed, c) {
				if s < minMember || s > maxMember {
					t.Fatalf("seed %d client %d: member of %d bytes", seed, c, s)
				}
				sum += s
			}
			if sum != total {
				t.Fatalf("seed %d client %d: archive of %d bytes, want %d", seed, c, sum, total)
			}
			if tr := treeFor(seed, c); len(tr.entries) != treeDirs+treeFiles {
				t.Fatalf("seed %d client %d: %d tree items", seed, c, len(tr.entries))
			}
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		frames, compiled []string
		want             string
	}{
		{[]string{"runtime.memmove", "repro/internal/dtu.(*DTU).ReadMem"}, nil, "memmove"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/noc.(*Network).NewPacket"}, nil, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, nil, "gc"},
		{[]string{"runtime.chansend1", "repro/internal/sim.(*Engine).resume", "repro/internal/sim.(*Engine).step"}, nil, "sim_handoff"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, nil, "sim_handoff"},
		{nil, []string{"repro/internal/m3fs.(*Client).Stat", "repro/internal/workload.(*M3OS).Stat"}, "m3fs"},
		{nil, []string{"repro/internal/workload.CopyAll", "main.untar"}, "app"},
		// A disabled tracer's guard, inlined into libm3, is libm3's time.
		{[]string{"repro/internal/obs.(*Tracer).On", "repro/internal/m3.(*Env).Syscall"},
			[]string{"repro/internal/m3.(*Env).Syscall"}, "m3"},
		{[]string{"runtime.sysmon"}, []string{"runtime.sysmon"}, "gc"},
	} {
		if got := classify(tc.frames, tc.compiled); got != tc.want {
			t.Errorf("classify(%v, %v) = %s, want %s", tc.frames, tc.compiled, got, tc.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var ws []metric
	for _, sp := range specs {
		ws = append(ws, metric{sp.name, ""})
	}
	check("workloads", b.Workloads, ws)
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}
