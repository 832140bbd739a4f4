package obs

import (
	"bytes"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero: count=%d mean=%d max=%d p50=%d",
			h.Count(), h.Mean(), h.Max(), h.Quantile(0.5))
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i).
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8} {
		h.Observe(v)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1}
	for i, c := range h.counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Count() != 7 || h.Sum() != 25 || h.Max() != 8 || h.Mean() != 3 {
		t.Fatalf("count=%d sum=%d max=%d mean=%d", h.Count(), h.Sum(), h.Max(), h.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 10 values: one in bucket 1 (1), eight in bucket 4 (8..15), one in
	// bucket 7 (64). Quantiles return bucket upper bounds, clamped to
	// the observed max.
	h.Observe(1)
	for i := 0; i < 8; i++ {
		h.Observe(8)
	}
	h.Observe(64)
	cases := []struct {
		q    float64
		want uint64
	}{
		{0.10, 1},  // rank 1 -> bucket 1, upper 1
		{0.11, 15}, // rank 2 (ceil) -> bucket 4, upper 15
		{0.50, 15}, // rank 5
		{0.90, 15}, // rank 9
		{0.91, 64}, // rank 10 -> bucket 7, upper 127, clamped to max 64
		{1.00, 64},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestHistogramMaxValue(t *testing.T) {
	var h Histogram
	h.Observe(^uint64(0))
	if got := h.Quantile(1.0); got != ^uint64(0) {
		t.Fatalf("Quantile(1.0) of MaxUint64 = %d", got)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	tr := New(Options{})
	for _, v := range []uint64{3, 90, 700} {
		tr.Hist(HSyscallRTT).Observe(v)
	}
	tr.Hist(HMsgLatency).Observe(12)
	tr.Hist(HXfer).Observe(513)
	tr.Hist(HLinkOcc).Observe(0)
	// HSvcCall left empty on purpose: empty rows must render all-zero.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr.Histograms()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "hist.csv", buf.Bytes())
}

func TestHistogramQuantileEdges(t *testing.T) {
	// q=0 and q=1 on an empty histogram stay 0; on a populated one q=0
	// clamps to rank 1 (the lowest bucket) and q=1 is the highest.
	var empty Histogram
	if empty.Quantile(0) != 0 || empty.Quantile(1) != 0 {
		t.Fatalf("empty p0/p100 = %d/%d, want 0/0", empty.Quantile(0), empty.Quantile(1))
	}
	var h Histogram
	h.Observe(1)
	h.Observe(1000) // bucket 10, upper 1023
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %d, want 1 (rank clamps to first observation)", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %d, want 1000 (the bucket's upper bound 1023, clamped to max)", got)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(42) // bucket 6, upper 63
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%v) = %d, want 42 (every quantile is the one sample)", q, got)
		}
	}
	if h.Count() != 1 || h.Sum() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Fatalf("count=%d sum=%d max=%d mean=%d", h.Count(), h.Sum(), h.Max(), h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	// Merging differently-populated histograms must behave exactly as
	// if one histogram had observed both value streams.
	var a, b, both Histogram
	for _, v := range []uint64{0, 3, 9} {
		a.Observe(v)
		both.Observe(v)
	}
	for _, v := range []uint64{512, 513} {
		b.Observe(v)
		both.Observe(v)
	}
	a.Merge(&b)
	if a.counts != both.counts {
		t.Fatalf("merged counts = %v, want %v", a.counts, both.counts)
	}
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Max() != both.Max() {
		t.Fatalf("merged count/sum/max = %d/%d/%d, want %d/%d/%d",
			a.Count(), a.Sum(), a.Max(), both.Count(), both.Sum(), both.Max())
	}
	for _, q := range []float64{0.5, 0.9, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, want %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	var h Histogram
	h.Observe(7)
	h.Merge(nil)          // nil: no-op
	h.Merge(&Histogram{}) // empty: no-op
	if h.Count() != 1 || h.Sum() != 7 || h.Max() != 7 {
		t.Fatalf("after no-op merges: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Merging into an empty histogram adopts the other's contents.
	var dst Histogram
	dst.Merge(&h)
	if dst.Count() != 1 || dst.Max() != 7 || dst.Quantile(1) != 7 {
		t.Fatalf("merge into empty: count=%d max=%d p100=%d", dst.Count(), dst.Max(), dst.Quantile(1))
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is 0.
	var empty Histogram
	for _, q := range []float64{0.001, 0.5, 0.999, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// Single sample: every quantile lands in its bucket, clamped to
	// the sample itself.
	var one Histogram
	one.Observe(100) // bucket 7: [64, 128)
	for _, q := range []float64{0.001, 0.5, 0.999, 1} {
		if got := one.Quantile(q); got != 100 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 100", q, got)
		}
	}

	// Zero-only: bucket 0 is exactly {0}.
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(0)
	if got := zeros.Quantile(0.999); got != 0 {
		t.Fatalf("zeros Quantile(0.999) = %d, want 0", got)
	}

	// Overflow bucket: values with the top bit set land in bucket 64,
	// whose upper bound saturates at ^uint64(0) and clamps to the max.
	var ovf Histogram
	ovf.Observe(1 << 63)
	if got := ovf.Quantile(0.999); got != 1<<63 {
		t.Fatalf("overflow Quantile(0.999) = %d, want 1<<63", got)
	}

	// Sparse two-bucket histogram at the exact q=0.999 rank boundary:
	// 999 small values and 1 huge one. rank = ceil(0.999*1000) = 999,
	// still inside the small bucket; one more small value pushes the
	// q=0.999 rank past it only when the tail sample is included.
	var sparse Histogram
	for i := 0; i < 999; i++ {
		sparse.Observe(3) // bucket 2: [2, 4)
	}
	sparse.Observe(1 << 40) // bucket 41
	if got := sparse.Quantile(0.999); got != 3 {
		t.Fatalf("sparse Quantile(0.999) = %d, want 3 (rank 999 of 1000)", got)
	}
	if got := sparse.Quantile(1); got != 1<<40 {
		t.Fatalf("sparse Quantile(1) = %d, want %d (the max)", got, uint64(1<<40))
	}

	// Exact boundary the other way: 1000 samples where rank 999 IS the
	// tail bucket (998 small + 2 large → ceil(0.999*1000)=999 > 998).
	var edge Histogram
	for i := 0; i < 998; i++ {
		edge.Observe(3)
	}
	edge.Observe(1 << 40)
	edge.Observe(1 << 40)
	if got := edge.Quantile(0.999); got != 1<<40 {
		t.Fatalf("edge Quantile(0.999) = %d, want the tail bucket, clamped to max", got)
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	// Five values in bucket 10 ([512, 1024)): the bucket's upper bound
	// 1023 lies above every observation, so each quantile is the max.
	// The capture round trip reports the same.
	var h Histogram
	for _, v := range []uint64{520, 560, 600, 600, 610} {
		h.Observe(v)
	}
	ch := CaptureHistogram(&h)
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 610 {
			t.Fatalf("Quantile(%v) = %d, want the max 610", q, got)
		}
		if got := ch.Quantile(q); got != 610 {
			t.Fatalf("capture Quantile(%v) = %d, want the max 610", q, got)
		}
	}
}
