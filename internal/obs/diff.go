package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The differential-observability engine: align two run captures
// (capture.go) and attribute their cycle delta. The output answers the
// question a red bench gate raises — *where* did the regression go —
// in four complementary views:
//
//   - profile deltas per (PE, layer, kind) leaf frame, each with its
//     top-k contributing span paths, plus per-layer rollups;
//   - per-bucket histogram shift with p50/p90/p99 quantile deltas;
//   - blame-category drift (app/queue/noc/kernel/retry/shed share of
//     end-to-end latency, the critical-path view);
//   - metric-by-metric deltas (changed, added, removed).
//
// Every slice in a CaptureDiff is sorted by a deterministic rule, so
// rendering — text, JSON, or folded flamegraph-diff — is byte-stable:
// diffing the same two captures always produces the same bytes, and a
// self-comparison renders as exactly "no drift".

// DiffQuantiles are the quantiles every histogram shift reports.
var DiffQuantiles = []float64{0.50, 0.90, 0.99}

// PathDelta is one folded span path's self-cycle change.
type PathDelta struct {
	Path string `json:"path"`
	Old  uint64 `json:"old"`
	New  uint64 `json:"new"`
}

// Delta returns new-old as a signed difference.
func (p PathDelta) Delta() int64 { return int64(p.New) - int64(p.Old) }

// GroupDelta aggregates the profile delta of one (PE, layer, kind)
// leaf frame — e.g. every path ending in kernel/ksyscall on pe0 — with
// the top-k span paths contributing to the change.
type GroupDelta struct {
	PE    string `json:"pe"`
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	Old   uint64 `json:"old"`
	New   uint64 `json:"new"`
	// Paths are the group's contributing span paths, largest absolute
	// delta first (ties by path), truncated to the diff's top-k.
	Paths []PathDelta `json:"paths,omitempty"`
}

// Delta returns new-old.
func (g GroupDelta) Delta() int64 { return int64(g.New) - int64(g.Old) }

// LayerDelta rolls a profile delta up to one architectural layer
// across all PEs and kinds.
type LayerDelta struct {
	Layer string `json:"layer"`
	Old   uint64 `json:"old"`
	New   uint64 `json:"new"`
}

// Delta returns new-old.
func (l LayerDelta) Delta() int64 { return int64(l.New) - int64(l.Old) }

// QuantileDelta is one histogram quantile's shift.
type QuantileDelta struct {
	Q   float64 `json:"q"`
	Old uint64  `json:"old"`
	New uint64  `json:"new"`
}

// BucketDelta is one histogram bucket whose count changed. Bit is the
// power-of-two bucket index (see Histogram).
type BucketDelta struct {
	Bit int    `json:"bit"`
	Old uint64 `json:"old"`
	New uint64 `json:"new"`
}

// HistDelta is the shift of one latency histogram.
type HistDelta struct {
	Name      string          `json:"name"`
	OldCount  uint64          `json:"old_count"`
	NewCount  uint64          `json:"new_count"`
	OldMean   uint64          `json:"old_mean"`
	NewMean   uint64          `json:"new_mean"`
	OldMax    uint64          `json:"old_max"`
	NewMax    uint64          `json:"new_max"`
	Quantiles []QuantileDelta `json:"quantiles,omitempty"`
	Buckets   []BucketDelta   `json:"buckets,omitempty"`
}

// Changed reports whether anything about the histogram moved.
func (h HistDelta) Changed() bool {
	if h.OldCount != h.NewCount || h.OldMean != h.NewMean || h.OldMax != h.NewMax {
		return true
	}
	return len(h.Buckets) > 0
}

// BlameDelta is one blame category's drift: absolute cycles and the
// category's share of the total end-to-end latency.
type BlameDelta struct {
	Category string  `json:"category"`
	Old      uint64  `json:"old"`
	New      uint64  `json:"new"`
	OldShare float64 `json:"old_share"`
	NewShare float64 `json:"new_share"`
}

// Delta returns new-old.
func (b BlameDelta) Delta() int64 { return int64(b.New) - int64(b.Old) }

// Metric delta statuses.
const (
	MetricChanged = "changed"
	MetricAdded   = "added"
	MetricRemoved = "removed"
)

// MetricDelta is one registry metric's change. Only changed, added,
// and removed metrics are retained — equal values are silent, so a
// self-diff has no metric section.
type MetricDelta struct {
	Name   string `json:"name"` // rendered name, "[idx]" suffix for vectors
	Status string `json:"status"`
	Old    int64  `json:"old"`
	New    int64  `json:"new"`
}

// CaptureDiff is the full attribution of the delta between two
// captures of the same workload.
type CaptureDiff struct {
	Workload string `json:"workload"`
	// OldTotal/NewTotal are the total attributed profile self-cycles.
	OldTotal uint64 `json:"old_total"`
	NewTotal uint64 `json:"new_total"`
	// Groups lists every (PE, layer, kind) whose self-cycles moved,
	// largest absolute delta first.
	Groups []GroupDelta `json:"groups,omitempty"`
	// Layers is the per-layer rollup over all groups (including layers
	// whose total did not move, when any group under them did).
	Layers []LayerDelta `json:"layers,omitempty"`
	// Hists lists every histogram that shifted.
	Hists []HistDelta `json:"hists,omitempty"`
	// Blame is the full blame-category drift table (all categories,
	// category order) — present whenever either capture completed
	// requests and any category moved.
	Blame []BlameDelta `json:"blame,omitempty"`
	// BlameCompleted* carry the request counts behind the drift table.
	OldCompleted uint64 `json:"old_completed"`
	NewCompleted uint64 `json:"new_completed"`
	// Metrics lists changed/added/removed metrics in name order.
	Metrics []MetricDelta `json:"metrics,omitempty"`
}

// DiffTopPaths caps the per-group contributor list.
const DiffTopPaths = 3

// pathLeaf splits a folded path into its PE root and the layer/kind of
// its leaf frame. Paths without a frame ("pe0" alone) report empty
// layer and kind.
func pathLeaf(path string) (pe, layer, kind string) {
	elems := strings.Split(path, ";")
	pe = elems[0]
	if len(elems) < 2 {
		return pe, "", ""
	}
	leaf := elems[len(elems)-1]
	layer, kind, _ = strings.Cut(leaf, "/")
	return pe, layer, kind
}

// DiffCaptures aligns two captures and attributes their delta. It
// refuses mismatched schema versions and mismatched workloads: a diff
// of unrelated runs attributes nothing.
func DiffCaptures(old, new *RunCapture) (*CaptureDiff, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("obs: diff of nil capture")
	}
	if old.Schema != CaptureSchema || new.Schema != CaptureSchema {
		return nil, fmt.Errorf("obs: capture schema mismatch: old %d, new %d, this binary speaks %d",
			old.Schema, new.Schema, CaptureSchema)
	}
	if old.Workload != new.Workload {
		return nil, fmt.Errorf("obs: capture workload mismatch: old %q, new %q", old.Workload, new.Workload)
	}
	d := &CaptureDiff{Workload: old.Workload}
	d.diffProfile(old, new)
	d.diffHists(old, new)
	d.diffBlame(old, new)
	d.diffMetrics(old, new)
	return d, nil
}

// diffProfile builds the group, layer, and path deltas.
func (d *CaptureDiff) diffProfile(old, new *RunCapture) {
	type cyc struct{ old, new uint64 }
	paths := map[string]*cyc{}
	var order []string
	touch := func(p string) *cyc {
		c, ok := paths[p]
		if !ok {
			c = &cyc{}
			paths[p] = c
			order = append(order, p)
		}
		return c
	}
	for _, pc := range old.Profile {
		touch(pc.Path).old += pc.Cycles
		d.OldTotal += pc.Cycles
	}
	for _, pc := range new.Profile {
		touch(pc.Path).new += pc.Cycles
		d.NewTotal += pc.Cycles
	}
	sort.Strings(order)

	type gkey struct{ pe, layer, kind string }
	groups := map[gkey]*GroupDelta{}
	var gorder []gkey
	layers := map[string]*LayerDelta{}
	var lorder []string
	for _, p := range order {
		c := paths[p]
		pe, layer, kind := pathLeaf(p)
		gk := gkey{pe, layer, kind}
		g, ok := groups[gk]
		if !ok {
			g = &GroupDelta{PE: pe, Layer: layer, Kind: kind}
			groups[gk] = g
			gorder = append(gorder, gk)
		}
		g.Old += c.old
		g.New += c.new
		if c.old != c.new {
			g.Paths = append(g.Paths, PathDelta{Path: p, Old: c.old, New: c.new})
		}
		l, ok := layers[layer]
		if !ok {
			l = &LayerDelta{Layer: layer}
			layers[layer] = l
			lorder = append(lorder, layer)
		}
		l.Old += c.old
		l.New += c.new
	}
	for _, gk := range gorder {
		g := groups[gk]
		if g.Delta() == 0 && len(g.Paths) == 0 {
			continue
		}
		sort.SliceStable(g.Paths, func(i, j int) bool {
			di, dj := abs64(g.Paths[i].Delta()), abs64(g.Paths[j].Delta())
			if di != dj {
				return di > dj
			}
			return g.Paths[i].Path < g.Paths[j].Path
		})
		if len(g.Paths) > DiffTopPaths {
			g.Paths = g.Paths[:DiffTopPaths]
		}
		d.Groups = append(d.Groups, *g)
	}
	sort.SliceStable(d.Groups, func(i, j int) bool {
		di, dj := abs64(d.Groups[i].Delta()), abs64(d.Groups[j].Delta())
		if di != dj {
			return di > dj
		}
		gi, gj := d.Groups[i], d.Groups[j]
		if gi.PE != gj.PE {
			return gi.PE < gj.PE
		}
		if gi.Layer != gj.Layer {
			return gi.Layer < gj.Layer
		}
		return gi.Kind < gj.Kind
	})
	if len(d.Groups) > 0 {
		for _, l := range lorder {
			d.Layers = append(d.Layers, *layers[l])
		}
		sort.SliceStable(d.Layers, func(i, j int) bool {
			di, dj := d.Layers[i].Delta(), d.Layers[j].Delta()
			if di != dj {
				return di > dj
			}
			return d.Layers[i].Layer < d.Layers[j].Layer
		})
	}
}

// diffHists aligns histograms by name and keeps the ones that shifted.
func (d *CaptureDiff) diffHists(old, new *RunCapture) {
	oldH := map[string]CaptureHist{}
	for _, h := range old.Hists {
		oldH[h.Name] = h
	}
	newH := map[string]CaptureHist{}
	var names []string
	for _, h := range new.Hists {
		newH[h.Name] = h
		names = append(names, h.Name)
	}
	for _, h := range old.Hists {
		if _, ok := newH[h.Name]; !ok {
			names = append(names, h.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := oldH[name], newH[name]
		oh, nh := o.Histogram(), n.Histogram()
		hd := HistDelta{
			Name:     name,
			OldCount: oh.Count(), NewCount: nh.Count(),
			OldMean: oh.Mean(), NewMean: nh.Mean(),
			OldMax: oh.Max(), NewMax: nh.Max(),
		}
		for _, q := range DiffQuantiles {
			hd.Quantiles = append(hd.Quantiles, QuantileDelta{Q: q, Old: oh.Quantile(q), New: nh.Quantile(q)})
		}
		for bit := range oh.counts {
			if oh.counts[bit] != nh.counts[bit] {
				hd.Buckets = append(hd.Buckets, BucketDelta{Bit: bit, Old: oh.counts[bit], New: nh.counts[bit]})
			}
		}
		if hd.Changed() {
			d.Hists = append(d.Hists, hd)
		}
	}
}

// diffBlame builds the category drift table.
func (d *CaptureDiff) diffBlame(old, new *RunCapture) {
	d.OldCompleted = old.Blame.Completed
	d.NewCompleted = new.Blame.Completed
	oldC := map[string]uint64{}
	var oldTotal uint64
	for _, b := range old.Blame.Total {
		oldC[b.Category] += b.Cycles
		oldTotal += b.Cycles
	}
	newC := map[string]uint64{}
	var newTotal uint64
	var order []string
	for _, b := range new.Blame.Total {
		if _, dup := newC[b.Category]; !dup {
			order = append(order, b.Category)
		}
		newC[b.Category] += b.Cycles
		newTotal += b.Cycles
	}
	for _, b := range old.Blame.Total {
		if _, ok := newC[b.Category]; !ok {
			order = append(order, b.Category)
		}
	}
	moved := false
	var table []BlameDelta
	for _, cat := range order {
		bd := BlameDelta{Category: cat, Old: oldC[cat], New: newC[cat]}
		if oldTotal > 0 {
			bd.OldShare = float64(bd.Old) / float64(oldTotal)
		}
		if newTotal > 0 {
			bd.NewShare = float64(bd.New) / float64(newTotal)
		}
		if bd.Old != bd.New {
			moved = true
		}
		table = append(table, bd)
	}
	if moved {
		d.Blame = table
	}
}

// diffMetrics aligns registry metrics by (name, idx).
func (d *CaptureDiff) diffMetrics(old, new *RunCapture) {
	key := func(m CaptureMetric) string {
		if m.Idx >= 0 {
			return fmt.Sprintf("%s[%d]", m.Name, m.Idx)
		}
		return m.Name
	}
	oldM := map[string]CaptureMetric{}
	for _, m := range old.Metrics {
		oldM[key(m)] = m
	}
	newM := map[string]CaptureMetric{}
	for _, m := range new.Metrics {
		newM[key(m)] = m
	}
	var names []string
	for _, m := range new.Metrics {
		names = append(names, key(m))
	}
	for _, m := range old.Metrics {
		if _, ok := newM[key(m)]; !ok {
			names = append(names, key(m))
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, hasOld := oldM[name]
		n, hasNew := newM[name]
		switch {
		case hasOld && hasNew:
			if o.Value != n.Value {
				d.Metrics = append(d.Metrics, MetricDelta{Name: name, Status: MetricChanged, Old: o.Value, New: n.Value})
			}
		case hasNew:
			d.Metrics = append(d.Metrics, MetricDelta{Name: name, Status: MetricAdded, New: n.Value})
		default:
			d.Metrics = append(d.Metrics, MetricDelta{Name: name, Status: MetricRemoved, Old: o.Value})
		}
	}
}

// Empty reports whether the two captures were observably identical:
// an empty diff renders as "no drift".
func (d *CaptureDiff) Empty() bool {
	return len(d.Groups) == 0 && len(d.Hists) == 0 && len(d.Blame) == 0 &&
		len(d.Metrics) == 0 && d.OldTotal == d.NewTotal &&
		d.OldCompleted == d.NewCompleted
}

// TopLayer returns the layer with the largest positive profile-cycle
// delta — the first suspect of a regression (false when nothing grew).
func (d *CaptureDiff) TopLayer() (LayerDelta, bool) {
	for _, l := range d.Layers {
		if l.Delta() > 0 {
			return l, true
		}
	}
	return LayerDelta{}, false
}

// TopBlame returns the blame category with the largest positive cycle
// drift — where the added end-to-end latency landed (false when no
// category grew). Categories tie-break in table order.
func (d *CaptureDiff) TopBlame() (BlameDelta, bool) {
	var best BlameDelta
	found := false
	for _, b := range d.Blame {
		if b.Delta() > 0 && (!found || b.Delta() > best.Delta()) {
			best, found = b, true
		}
	}
	return best, found
}

// abs64 is the absolute value of a signed delta.
func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// pct renders a relative change as "+6.2%" ("n/a" on a zero base).
func pct(old, new uint64) string {
	if old == 0 {
		if new == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(new)/float64(old)-1))
}

// signed renders a signed cycle delta with an explicit sign.
func signed(v int64) string { return fmt.Sprintf("%+d", v) }

// Summary renders the diff's headline in one line: total profile
// movement plus the top layer and blame drift.
func (d *CaptureDiff) Summary() string {
	if d.Empty() {
		return fmt.Sprintf("capture %s: no drift", d.Workload)
	}
	s := fmt.Sprintf("capture %s: attributed cycles %d -> %d (%s)",
		d.Workload, d.OldTotal, d.NewTotal, pct(d.OldTotal, d.NewTotal))
	if l, ok := d.TopLayer(); ok {
		s += fmt.Sprintf("; top layer %s %s (%s cycles)", l.Layer, pct(l.Old, l.New), signed(l.Delta()))
	}
	if b, ok := d.TopBlame(); ok {
		s += fmt.Sprintf("; blame %s %.0f%%->%.0f%%", b.Category, 100*b.OldShare, 100*b.NewShare)
	}
	return s
}

// WriteText renders the full deterministic report. topGroups caps the
// group table (0 = all).
func (d *CaptureDiff) WriteText(w io.Writer, topGroups int) error {
	if d.Empty() {
		_, err := fmt.Fprintf(w, "capture %s: no drift\n", d.Workload)
		return err
	}
	pr := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pr("capture %s: attributed cycles %d -> %d (%s)\n",
		d.Workload, d.OldTotal, d.NewTotal, pct(d.OldTotal, d.NewTotal)); err != nil {
		return err
	}
	if len(d.Layers) > 0 {
		if err := pr("  layer deltas (self-cycles, all PEs):\n"); err != nil {
			return err
		}
		for _, l := range d.Layers {
			if err := pr("    %-8s %10d -> %10d  %8s (%s)\n",
				l.Layer, l.Old, l.New, signed(l.Delta()), pct(l.Old, l.New)); err != nil {
				return err
			}
		}
	}
	groups := d.Groups
	if topGroups > 0 && len(groups) > topGroups {
		groups = groups[:topGroups]
	}
	if len(groups) > 0 {
		if err := pr("  hottest (PE, layer, kind) deltas:\n"); err != nil {
			return err
		}
		for _, g := range groups {
			if err := pr("    %s %s/%s: %d -> %d (%s, %s)\n",
				g.PE, g.Layer, g.Kind, g.Old, g.New, signed(g.Delta()), pct(g.Old, g.New)); err != nil {
				return err
			}
			for _, p := range g.Paths {
				if err := pr("      path %s: %d -> %d (%s)\n", p.Path, p.Old, p.New, signed(p.Delta())); err != nil {
					return err
				}
			}
		}
		if topGroups > 0 && len(d.Groups) > topGroups {
			if err := pr("    ... %d more group(s) suppressed (-top)\n", len(d.Groups)-topGroups); err != nil {
				return err
			}
		}
	}
	for _, h := range d.Hists {
		if err := pr("  hist %s: count %d -> %d, mean %d -> %d, max %d -> %d\n",
			h.Name, h.OldCount, h.NewCount, h.OldMean, h.NewMean, h.OldMax, h.NewMax); err != nil {
			return err
		}
		for _, q := range h.Quantiles {
			if q.Old == q.New {
				continue
			}
			if err := pr("    p%g: %d -> %d (%s)\n", q.Q*100, q.Old, q.New, pct(q.Old, q.New)); err != nil {
				return err
			}
		}
		for _, b := range h.Buckets {
			if err := pr("    bucket 2^%d: %d -> %d\n", b.Bit, b.Old, b.New); err != nil {
				return err
			}
		}
	}
	if len(d.Blame) > 0 {
		if err := pr("  blame drift (%d -> %d completed requests):\n", d.OldCompleted, d.NewCompleted); err != nil {
			return err
		}
		for _, b := range d.Blame {
			if err := pr("    %-8s %10d -> %10d  %8s  share %.1f%% -> %.1f%%\n",
				b.Category, b.Old, b.New, signed(b.Delta()), 100*b.OldShare, 100*b.NewShare); err != nil {
				return err
			}
		}
	}
	for _, m := range d.Metrics {
		switch m.Status {
		case MetricChanged:
			if err := pr("  metric %s: %d -> %d (%s)\n", m.Name, m.Old, m.New, signed(m.New-m.Old)); err != nil {
				return err
			}
		case MetricAdded:
			if err := pr("  metric %s: added (%d)\n", m.Name, m.New); err != nil {
				return err
			}
		case MetricRemoved:
			if err := pr("  metric %s: removed (was %d)\n", m.Name, m.Old); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the diff as indented JSON with a trailing newline.
func (d *CaptureDiff) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFoldedDiff renders the two profiles in flamegraph difffolded
// format — one "path old new" line per path in the union, sorted by
// path — directly consumable by flamegraph.pl --negate / difffolded.
func WriteFoldedDiff(w io.Writer, old, new *RunCapture) error {
	cycles := func(c *RunCapture) map[string]uint64 {
		m := make(map[string]uint64, len(c.Profile))
		for _, pc := range c.Profile {
			m[pc.Path] += pc.Cycles
		}
		return m
	}
	om, nm := cycles(old), cycles(new)
	var paths []string
	for p := range om {
		paths = append(paths, p)
	}
	for p := range nm { //m3vet:allow nodeterminism keys are collected and sorted below before any output
		if _, ok := om[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := fmt.Fprintf(w, "%s %d %d\n", p, om[p], nm[p]); err != nil {
			return err
		}
	}
	return nil
}
