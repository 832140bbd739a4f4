package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestDiffSelftest(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"diff", "-selftest"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}

// TestRecordReplayRoundTrip records tar on the Linux model and replays
// every recorded operation on M3.
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
