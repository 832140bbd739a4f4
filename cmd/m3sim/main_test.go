package main

import (
	"bytes"
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
