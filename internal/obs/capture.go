package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Run captures: a self-describing snapshot of everything one
// instrumented run observed — the folded cycle-attribution profile,
// the metrics registry, the latency histograms, and the critical-path
// blame summary — bundled into one schema-versioned value. A capture
// is the unit the differential-observability layer (diff.go, `m3sim
// diff`) aligns: two captures of the same workload from two trees explain a
// bench-gate regression in terms of layers, span paths, histogram
// shifts, and blame drift instead of a bare "N% slower".
//
// Determinism contract: a capture contains only simulation-derived
// values in fixed orders (profile paths sorted, metrics in registration
// order, histograms in id order, blame in paint order), so identical
// runs marshal to byte-identical JSON. Capturing is pure
// post-processing over the existing event stream (Profiler and CritPath
// are ordinary sinks); with no capture armed, nothing here runs.

// CaptureSchema is the run-capture schema version. Bump it whenever the
// capture layout changes incompatibly; DiffCaptures refuses to align
// captures of different schema versions.
const CaptureSchema = 2

// CapturePath is one folded-profile line: a ';'-separated call path and
// the self-cycles attributed to its leaf frame.
type CapturePath struct {
	Path   string `json:"path"`
	Cycles uint64 `json:"cycles"`
}

// CaptureMetric is one registry counter's end-of-run value.
type CaptureMetric struct {
	Name string `json:"name"`
	// Idx distinguishes vector-metric instances; -1 marks a scalar.
	Idx int `json:"idx"`
	// Kind is always "counter", the registry's only kind; it keeps
	// the schema-1 layout.
	Kind  string `json:"kind"`
	Value int64  `json:"value"`
}

// CaptureBucket is one non-empty histogram bucket: Bit is the bucket
// index (values v with bits.Len64(v) == Bit; see Histogram).
type CaptureBucket struct {
	Bit   int    `json:"bit"`
	Count uint64 `json:"count"`
}

// CaptureHist is one latency histogram, sparsely encoded: only
// non-empty buckets are stored.
type CaptureHist struct {
	Name    string          `json:"name"`
	Count   uint64          `json:"count"`
	Sum     uint64          `json:"sum"`
	Max     uint64          `json:"max"`
	Buckets []CaptureBucket `json:"buckets,omitempty"`
}

// CaptureBlame is one paint's cycles: a layer working, or waited on.
type CaptureBlame struct {
	Layer  string `json:"layer"`
	Wait   bool   `json:"wait"`
	Cycles uint64 `json:"cycles"`
}

// BlameList lists a blame vector or total cell by cell, in paint order.
func BlameList[T uint32 | uint64](v [NumPaints]T) []CaptureBlame {
	out := make([]CaptureBlame, NumPaints)
	for p := range NumPaints {
		out[p] = CaptureBlame{Layer: p.Layer().String(), Wait: p.Wait(), Cycles: uint64(v[p])}
	}
	return out
}

// CaptureBlameSet is the critical-path summary of a capture.
type CaptureBlameSet struct {
	Completed uint64         `json:"completed"`
	Failed    uint64         `json:"failed"`
	Total     []CaptureBlame `json:"total"`
}

// RunCapture is the full self-describing capture of one run.
type RunCapture struct {
	Schema   int             `json:"schema"`
	Workload string          `json:"workload"`
	Profile  []CapturePath   `json:"profile"`
	Metrics  []CaptureMetric `json:"metrics"`
	Hists    []CaptureHist   `json:"hists"`
	Blame    CaptureBlameSet `json:"blame"`
}

// CaptureHistogram encodes a histogram sparsely. Empty histograms
// produce no buckets; the zero counts stay diffable.
func CaptureHistogram(h *Histogram) CaptureHist {
	ch := CaptureHist{Name: h.Name, Count: h.n, Sum: h.sum, Max: h.max}
	for bit, c := range h.counts {
		if c != 0 {
			ch.Buckets = append(ch.Buckets, CaptureBucket{Bit: bit, Count: c})
		}
	}
	return ch
}

// Histogram reconstructs the dense histogram, so quantile logic runs on
// captures exactly as it runs live.
func (ch CaptureHist) Histogram() Histogram {
	h := Histogram{Name: ch.Name, n: ch.Count, sum: ch.Sum, max: ch.Max}
	for _, b := range ch.Buckets {
		if b.Bit >= 0 && b.Bit < len(h.counts) {
			h.counts[b.Bit] = b.Count
		}
	}
	return h
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile of the captured values (0 when the capture is empty),
// identical to Histogram.Quantile on the live histogram.
func (ch CaptureHist) Quantile(q float64) uint64 {
	h := ch.Histogram()
	return h.Quantile(q)
}

// NewRunCapture assembles a capture from the run's sinks. Any argument
// may be nil; the corresponding section stays empty. hists are captured
// in the given order.
func NewRunCapture(workload string, prof *Profiler, cp *CritPath, reg *Registry, hists []*Histogram) *RunCapture {
	c := &RunCapture{Schema: CaptureSchema, Workload: workload}
	if prof != nil {
		for _, pc := range prof.Folded() {
			c.Profile = append(c.Profile, CapturePath{Path: pc.Path, Cycles: pc.Cycles})
		}
	}
	for _, e := range reg.Entries() {
		c.Metrics = append(c.Metrics, CaptureMetric{
			Name: e.Name, Idx: e.Idx, Kind: "counter", Value: e.Value(),
		})
	}
	for _, h := range hists {
		c.Hists = append(c.Hists, CaptureHistogram(h))
	}
	if cp != nil {
		c.Blame = CaptureBlameSet{Completed: cp.completed, Failed: cp.failed, Total: BlameList(cp.total)}
	}
	return c
}

// WriteJSON renders the capture as indented JSON with a trailing
// newline — deterministic, since every slice is in a fixed order.
func (c *RunCapture) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadCaptureJSON parses a capture and validates its schema version.
func ReadCaptureJSON(data []byte) (*RunCapture, error) {
	var c RunCapture
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("obs: parsing capture JSON: %w", err)
	}
	if c.Schema != CaptureSchema {
		return nil, fmt.Errorf("obs: capture schema %d, this binary speaks %d", c.Schema, CaptureSchema)
	}
	// A capture always names its workload; its absence means this is
	// some other JSON with the same schema number (a bench file, say).
	if c.Workload == "" {
		return nil, fmt.Errorf("obs: capture JSON names no workload")
	}
	return &c, nil
}
