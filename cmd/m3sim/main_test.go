package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/m3fs"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestRunInstancesHonorsFlags: with -n 2 every flag still applies.
// -trace 5 prints exactly five structured events, and the report lists
// both instances.
func TestRunInstancesHonorsFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-w", "find", "-n", "2", "-trace", "5", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "[") {
			events++
		}
	}
	if events != 5 {
		t.Errorf("-trace 5 printed %d event lines, want 5:\n%s", events, out.String())
	}
	for _, want := range []string{"2 instance(s)", "app0 ", "app1 ", "mean run time per instance", "msgs-sent"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report is missing %q:\n%s", want, out.String())
		}
	}
}

// TestStatsKeepsTheRun: -stats only reads the registry after the run,
// so the run it reports is the plain run: the same total cycles and
// executed events, and the utilization tables follow.
func TestStatsKeepsTheRun(t *testing.T) {
	total := func(args ...string) (string, string) {
		var out bytes.Buffer
		if err := run(append([]string{"-w", "tar"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "total:") {
				return line, out.String()
			}
		}
		t.Fatalf("no total line in:\n%s", out.String())
		return "", ""
	}
	plain, _ := total()
	stats, report := total("-stats")
	if stats != plain {
		t.Errorf("-stats changed the run:\n%s\nwant\n%s", stats, plain)
	}
	for _, want := range []string{"per-PE utilization:", "per-link utilization", "kernel_syscalls_total = "} {
		if !strings.Contains(report, want) {
			t.Errorf("-stats report is missing %q:\n%s", want, report)
		}
	}
}

// TestSLOJSONMatchesGolden: the JSON report of `slo -w tar -json -`
// is byte-identical to the committed SLO_0.json golden.
func TestSLOJSONMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../SLO_0.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"slo", "-w", "tar", "-json", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(out.Bytes(), golden) {
		t.Errorf("slo -json - does not end with SLO_0.json:\n%s", out.String())
	}
}

// TestDiffReadsCaptureFiles: `diff a b` over two capture files prints
// the text report of obs.DiffCaptures over the same two captures.
func TestDiffReadsCaptureFiles(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var caps [2]*obs.RunCapture
	var paths [2]string
	for i, fs := range []m3fs.Config{{}, {Journal: true}} {
		if caps[i], _, err = bench.Capture(bench.Scenario{Workload: b, M3Options: bench.M3Options{FS: fs}}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := caps[i].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("%d.json", i))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := obs.DiffCaptures(caps[0], caps[1])
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("journaling m3fs left the tar capture unchanged")
	}
	var want, got bytes.Buffer
	if err := d.WriteText(&want, 10); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", paths[0], paths[1]}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("diff printed\n%s\nwant\n%s", got.String(), want.String())
	}
}

// TestRecordReplayRoundTrip records tar on the Linux model and replays
// every recorded operation on M3. The Linux model runs one instance, so
// record and replay on it refuse -n instead of ignoring it.
func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tar.trace")
	var out bytes.Buffer
	if err := run([]string{"record", "-w", "tar", "-os", "linux", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	var ops int
	if _, err := fmt.Sscanf(out.String(), "recorded %d operations", &ops); err != nil || ops == 0 {
		t.Fatalf("record output %q: %v", out.String(), err)
	}
	out.Reset()
	if err := run([]string{"replay", "-i", path, "-os", "m3", "-w", "tar"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("replayed %d operations on m3 in ", ops); !strings.HasPrefix(out.String(), want) {
		t.Errorf("replay printed %q, want prefix %q", out.String(), want)
	}
	for _, args := range [][]string{
		{"record", "-w", "tar", "-os", "linux", "-n", "4", "-o", path},
		{"replay", "-w", "tar", "-os", "linux", "-n", "4", "-i", path},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "one instance") {
			t.Errorf("%v: err = %v, want a one-instance error", args, err)
		}
	}
}

// TestTraceSpanOfSLOExemplar drills into the p99 request that slo
// reports: trace -span prints its events and nothing else.
func TestTraceSpanOfSLOExemplar(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"slo", "-w", "tar"}, &out); err != nil {
		t.Fatal(err)
	}
	span := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "p99" {
			span = f[1]
		}
	}
	if span == "" {
		t.Fatalf("no p99 row in the slo report:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"trace", "-w", "tar", "-span", span, "-text"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	events := lines[:len(lines)-1]
	if len(events) == 0 {
		t.Fatalf("trace -span %s printed no events", span)
	}
	for _, ev := range events {
		if !strings.Contains(ev, " span="+span+" ") {
			t.Errorf("event outside span %s: %s", span, ev)
		}
	}
}

func TestProfTopPaths(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"prof", "-w", "tar", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	// The path rows sit between the table header and the per-PE table.
	report := out.String()
	from := strings.Index(report, "self-cycles  share")
	to := strings.Index(report, "attributed cycles per PE")
	if from < 0 || to < from {
		t.Fatalf("prof report lacks its tables:\n%s", report)
	}
	rows := strings.Split(strings.TrimSpace(report[from:to]), "\n")[1:]
	if len(rows) != 3 {
		t.Errorf("prof -top 3 printed %d call paths:\n%s", len(rows), report)
	}
}

// TestEmptyWindowRejected: an -until at or before -since is an error,
// raised before anything runs (the unknown workload is never looked up).
func TestEmptyWindowRejected(t *testing.T) {
	for _, args := range [][]string{
		{"trace", "-w", "nosuch", "-since", "100", "-until", "50"},
		{"trace", "-w", "nosuch", "-since", "100", "-until", "100"},
		{"show", "-i", "nosuch.trace", "-since", "100", "-until", "50"},
	} {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "empty cycle window") {
			t.Errorf("%v: err = %v, want an empty-window error", args, err)
		}
	}
}
