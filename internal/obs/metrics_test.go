package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestMetricsNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", -1)
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil registry counter not inert: %d", c.Value())
	}
	if r.Entries() != nil {
		t.Fatalf("nil registry not empty")
	}
	if got := r.Snapshot(); got != "# m3 metrics v1\n" {
		t.Fatalf("nil registry snapshot = %q", got)
	}
}

func TestMetricsIdentityAndOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", -1)
	b := r.Counter("b_total", 2)
	b2 := r.Counter("b_total", 2)
	if b != b2 {
		t.Fatalf("same (name, idx) returned distinct counters")
	}
	if r.Counter("b_total", 3) == b {
		t.Fatalf("distinct idx returned same counter")
	}
	a.Inc()
	b.Add(7)
	r.Counter("depth", -1).Add(4)
	var got []string
	for _, e := range r.Entries() {
		got = append(got, e.Name)
	}
	want := "a_total b_total b_total depth"
	if strings.Join(got, " ") != want {
		t.Fatalf("registration order = %q, want %q", strings.Join(got, " "), want)
	}
}

func TestSnapshotDeterministicAndFormatted(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("dtu_stalls_total", 2).Add(17)
		r.Counter("kernel_syscalls_total", -1).Add(3)
		return r
	}
	snap := build().Snapshot()
	want := `# m3 metrics v1
counter dtu_stalls_total[2] 17
counter kernel_syscalls_total 3
`
	if snap != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", snap, want)
	}
	if snap != build().Snapshot() {
		t.Fatalf("identical construction produced differing snapshots")
	}
}

// TestEntryValueAndSamples: each entry reports its counter's value; the
// registry keeps counts only, never sampled histories.
func TestEntryValueAndSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", -1).Add(4)
	r.Counter("v", 1).Inc()
	r.Counter("v", 0)
	r.Counter("c", -1).Add(2)
	vals := make(map[string]int64)
	for _, e := range r.Entries() {
		vals[e.Name+"/"+strconv.Itoa(e.Idx)] = e.Value()
	}
	if len(vals) != 3 || vals["c/-1"] != 6 || vals["v/1"] != 1 || vals["v/0"] != 0 {
		t.Fatalf("entry values = %v", vals)
	}
}
