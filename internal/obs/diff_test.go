package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// capture builds a minimal RunCapture by hand for diff tests.
func testCapture(workload string, paths []CapturePath, hists []CaptureHist, blame []CaptureBlame) *RunCapture {
	return &RunCapture{
		Schema:   CaptureSchema,
		Workload: workload,
		Profile:  paths,
		Hists:    hists,
		Blame:    CaptureBlameSet{Completed: 1, Total: blame},
	}
}

func TestCaptureHistogramRoundTrip(t *testing.T) {
	var h Histogram
	h.Name = "rt"
	for _, v := range []uint64{0, 1, 2, 3, 100, 1 << 20, 1 << 40} {
		h.Observe(v)
	}
	ch := CaptureHistogram(&h)
	got := ch.Histogram()
	if got.Count() != h.Count() || got.Sum() != h.Sum() || got.Max() != h.Max() {
		t.Fatalf("round trip lost aggregates: %+v vs %+v", got, h)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got.Quantile(q) != h.Quantile(q) {
			t.Fatalf("quantile %g: capture %d, live %d", q, got.Quantile(q), h.Quantile(q))
		}
	}
}

func TestCaptureSchemaMismatchRejected(t *testing.T) {
	if _, err := ReadCaptureJSON([]byte(`{"schema": 99, "workload": "tar"}`)); err == nil {
		t.Fatal("schema 99 capture accepted")
	}
	// Other JSON with the capture's schema number (a bench file) must
	// not parse as a capture — captures always name their workload.
	if _, err := ReadCaptureJSON([]byte(fmt.Sprintf(`{"schema": %d, "experiments": []}`, CaptureSchema))); err == nil {
		t.Fatal("workload-less JSON accepted as a capture")
	}
	old := testCapture("tar", nil, nil, nil)
	bad := testCapture("tar", nil, nil, nil)
	bad.Schema = CaptureSchema + 1
	if _, err := DiffCaptures(old, bad); err == nil {
		t.Fatal("diff of mismatched schemas accepted")
	}
	if _, err := DiffCaptures(bad, old); err == nil {
		t.Fatal("diff of mismatched schemas accepted (old side)")
	}
}

func TestDiffWorkloadMismatchRejected(t *testing.T) {
	a := testCapture("tar", nil, nil, nil)
	b := testCapture("find", nil, nil, nil)
	if _, err := DiffCaptures(a, b); err == nil {
		t.Fatal("diff of different workloads accepted")
	}
}

// A self-comparison must render byte-identically as "no drift" in all
// three formats.
func TestDiffSelfComparisonNoDrift(t *testing.T) {
	var h Histogram
	h.Name = "lat"
	h.Observe(100)
	h.Observe(4000)
	c := testCapture("tar",
		[]CapturePath{{Path: "pe2;app/syscall", Cycles: 500}, {Path: "pe2;app/syscall;dtu/flight", Cycles: 40}},
		[]CaptureHist{CaptureHistogram(&h)},
		[]CaptureBlame{{Layer: "app", Cycles: 300}, {Layer: "kernel", Cycles: 200}})
	d, err := DiffCaptures(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("self-diff not empty: %+v", d)
	}
	var text1, text2 bytes.Buffer
	if err := d.WriteText(&text1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteText(&text2, 10); err != nil {
		t.Fatal(err)
	}
	want := "capture tar: no drift\n"
	if text1.String() != want || text2.String() != want {
		t.Fatalf("self-diff rendered %q / %q, want %q", text1.String(), text2.String(), want)
	}
	if d.Summary() != "capture tar: no drift" {
		t.Fatalf("summary = %q", d.Summary())
	}
	var f1, f2 bytes.Buffer
	if err := WriteFoldedDiff(&f1, c, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteFoldedDiff(&f2, c, c); err != nil {
		t.Fatal(err)
	}
	if f1.String() != f2.String() {
		t.Fatal("folded self-diff not byte-stable")
	}
	for _, line := range strings.Split(strings.TrimSpace(f1.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[1] != fields[2] {
			t.Fatalf("folded self-diff line %q not old==new", line)
		}
	}
}

// Quantile deltas must survive empty and singleton histograms without
// panicking or inventing drift.
func TestDiffHistEmptyAndSingleton(t *testing.T) {
	var empty, single Histogram
	empty.Name = "lat"
	single.Name = "lat"
	single.Observe(1000)

	// empty vs empty: no shift.
	a := testCapture("tar", nil, []CaptureHist{CaptureHistogram(&empty)}, nil)
	d, err := DiffCaptures(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Hists) != 0 {
		t.Fatalf("empty-vs-empty produced hist delta: %+v", d.Hists)
	}

	// empty vs singleton: one shift, quantiles 0 -> bucket-upper(1000).
	b := testCapture("tar", nil, []CaptureHist{CaptureHistogram(&single)}, nil)
	d, err = DiffCaptures(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Hists) != 1 {
		t.Fatalf("empty-vs-singleton: %d hist deltas", len(d.Hists))
	}
	hd := d.Hists[0]
	if hd.OldCount != 0 || hd.NewCount != 1 {
		t.Fatalf("counts %d -> %d", hd.OldCount, hd.NewCount)
	}
	if len(hd.Quantiles) != len(DiffQuantiles) {
		t.Fatalf("%d quantiles, want %d", len(hd.Quantiles), len(DiffQuantiles))
	}
	want := single.Quantile(0.99)
	for _, q := range hd.Quantiles {
		if q.Old != 0 || q.New != want {
			t.Fatalf("quantile p%g: %d -> %d, want 0 -> %d", q.Q*100, q.Old, q.New, want)
		}
	}
	if len(hd.Buckets) != 1 {
		t.Fatalf("bucket deltas: %+v", hd.Buckets)
	}

	// singleton vs singleton: identical, no shift.
	d, err = DiffCaptures(b, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Hists) != 0 || !d.Empty() {
		t.Fatalf("singleton self-diff not empty: %+v", d)
	}
}

// Runs whose span paths do not overlap at all must still align: every
// path appears as a delta against zero, and the folded diff covers the
// union.
func TestDiffDisjointSpanPaths(t *testing.T) {
	a := testCapture("tar",
		[]CapturePath{{Path: "pe1;app/compute", Cycles: 700}},
		nil, nil)
	b := testCapture("tar",
		[]CapturePath{{Path: "pe0;kernel/ksyscall", Cycles: 900}},
		nil, nil)
	d, err := DiffCaptures(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("disjoint-path diff reported empty")
	}
	if d.OldTotal != 700 || d.NewTotal != 900 {
		t.Fatalf("totals %d -> %d", d.OldTotal, d.NewTotal)
	}
	if len(d.Groups) != 2 {
		t.Fatalf("groups: %+v", d.Groups)
	}
	// Largest absolute delta first: kernel grew by 900, app shrank 700.
	if d.Groups[0].Layer != "kernel" || d.Groups[0].Old != 0 || d.Groups[0].New != 900 {
		t.Fatalf("group[0] = %+v", d.Groups[0])
	}
	if d.Groups[1].Layer != "app" || d.Groups[1].Old != 700 || d.Groups[1].New != 0 {
		t.Fatalf("group[1] = %+v", d.Groups[1])
	}
	if l, ok := d.TopLayer(); !ok || l.Layer != "kernel" {
		t.Fatalf("top layer = %+v ok=%v", l, ok)
	}

	var folded bytes.Buffer
	if err := WriteFoldedDiff(&folded, a, b); err != nil {
		t.Fatal(err)
	}
	want := "pe0;kernel/ksyscall 0 900\npe1;app/compute 700 0\n"
	if folded.String() != want {
		t.Fatalf("folded diff = %q, want %q", folded.String(), want)
	}
}

// TestDiffBlameDrift: the layer table carries each layer's profile
// and critical-path cycles, work and waits summed, and the top layer
// and top blame each read their own column of it.
func TestDiffBlameDrift(t *testing.T) {
	a := testCapture("tar", []CapturePath{{Path: "pe1;app/compute", Cycles: 50}}, nil,
		[]CaptureBlame{{Layer: "app", Cycles: 600}, {Layer: "kernel", Cycles: 400}})
	b := testCapture("tar", []CapturePath{{Path: "pe1;app/compute", Cycles: 80}}, nil,
		[]CaptureBlame{{Layer: "app", Cycles: 600}, {Layer: "kernel", Cycles: 500},
			{Layer: "kernel", Wait: true, Cycles: 100}})
	d, err := DiffCaptures(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []LayerDelta{
		{Layer: "app", Old: 50, New: 80, OldCrit: 600, NewCrit: 600},
		{Layer: "kernel", OldCrit: 400, NewCrit: 600},
	}
	if !reflect.DeepEqual(d.Layers, want) {
		t.Fatalf("layers = %+v, want %+v", d.Layers, want)
	}
	if top, ok := d.TopLayer(); !ok || top.Layer != "app" {
		t.Fatalf("top layer = %+v ok=%v", top, ok)
	}
	if top, ok := d.TopBlame(); !ok || top.Layer != "kernel" || top.CritDelta() != 200 {
		t.Fatalf("top blame = %+v ok=%v", top, ok)
	}
	// A critical-path move alone keeps the table.
	b.Profile = a.Profile
	if d, err = DiffCaptures(a, b); err != nil {
		t.Fatal(err)
	}
	if d.Empty() || len(d.Layers) != 2 {
		t.Fatalf("critical-path drift lost: %+v", d)
	}
}

func TestDiffMetricsChangedAddedRemoved(t *testing.T) {
	a := testCapture("tar", nil, nil, nil)
	a.Metrics = []CaptureMetric{
		{Name: "same", Idx: -1, Kind: "counter", Value: 5},
		{Name: "moved", Idx: -1, Kind: "counter", Value: 10},
		{Name: "gone", Idx: -1, Kind: "counter", Value: 1},
		{Name: "vec", Idx: 2, Kind: "counter", Value: 7},
	}
	b := testCapture("tar", nil, nil, nil)
	b.Metrics = []CaptureMetric{
		{Name: "same", Idx: -1, Kind: "counter", Value: 5},
		{Name: "moved", Idx: -1, Kind: "counter", Value: 12},
		{Name: "born", Idx: -1, Kind: "counter", Value: 3},
		{Name: "vec", Idx: 2, Kind: "counter", Value: 9},
	}
	d, err := DiffCaptures(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]MetricDelta{}
	for _, m := range d.Metrics {
		got[m.Name] = m
	}
	if _, ok := got["same"]; ok {
		t.Fatal("unchanged metric reported")
	}
	if m := got["moved"]; m.Status != MetricChanged || m.Old != 10 || m.New != 12 {
		t.Fatalf("moved = %+v", m)
	}
	if m := got["born"]; m.Status != MetricAdded || m.New != 3 {
		t.Fatalf("born = %+v", m)
	}
	if m := got["gone"]; m.Status != MetricRemoved || m.Old != 1 {
		t.Fatalf("gone = %+v", m)
	}
	if m := got["vec[2]"]; m.Status != MetricChanged || m.Old != 7 || m.New != 9 {
		t.Fatalf("vec[2] = %+v", m)
	}
}

// Group contributor lists are capped at DiffTopPaths, largest absolute
// delta first.
func TestDiffTopPathsCap(t *testing.T) {
	a := testCapture("tar", []CapturePath{
		{Path: "pe1;app/compute", Cycles: 10},
		{Path: "pe2;app/compute", Cycles: 10},
	}, nil, nil)
	b := testCapture("tar", []CapturePath{
		{Path: "pe1;app/compute", Cycles: 110}, // +100
		{Path: "pe2;app/compute", Cycles: 40},  // +30
		{Path: "pe3;app/compute", Cycles: 20},  // +20
		{Path: "pe4;app/compute", Cycles: 5},   // +5
	}, nil, nil)
	d, err := DiffCaptures(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// All four paths are distinct PEs, so four groups; each has one path.
	if len(d.Groups) != 4 {
		t.Fatalf("groups: %+v", d.Groups)
	}
	if d.Groups[0].Paths[0].Path != "pe1;app/compute" {
		t.Fatalf("group[0] = %+v", d.Groups[0])
	}
	// Same-leaf aggregation: one layer rollup over everything.
	if len(d.Layers) != 1 || d.Layers[0].Layer != "app" || d.Layers[0].Delta() != 155 {
		t.Fatalf("layers = %+v", d.Layers)
	}
}

func TestDiffTextAndJSONDeterministic(t *testing.T) {
	var h Histogram
	h.Name = "lat"
	h.Observe(50)
	a := testCapture("tar",
		[]CapturePath{{Path: "pe1;app/compute", Cycles: 100}},
		[]CaptureHist{CaptureHistogram(&h)},
		[]CaptureBlame{{Layer: "app", Cycles: 100}})
	h.Observe(90000)
	b := testCapture("tar",
		[]CapturePath{{Path: "pe1;app/compute", Cycles: 100}, {Path: "pe0;kernel/ksyscall", Cycles: 30}},
		[]CaptureHist{CaptureHistogram(&h)},
		[]CaptureBlame{{Layer: "app", Cycles: 100}, {Layer: "kernel", Cycles: 30}})
	render := func() (string, string) {
		d, err := DiffCaptures(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		if err := d.WriteText(&text, 5); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 || j1 != j2 {
		t.Fatal("diff rendering not byte-stable across repeated diffs")
	}
	if !strings.Contains(t1, "kernel") || !strings.Contains(t1, "critical path") {
		t.Fatalf("text report missing sections:\n%s", t1)
	}
}

func TestCaptureWriteReadRoundTrip(t *testing.T) {
	var h Histogram
	h.Name = "lat"
	h.Observe(123)
	c := testCapture("find",
		[]CapturePath{{Path: "pe1;app/compute", Cycles: 9}},
		[]CaptureHist{CaptureHistogram(&h)},
		[]CaptureBlame{{Layer: "app", Cycles: 9}})
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCaptureJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("capture JSON round trip not byte-identical")
	}
}
