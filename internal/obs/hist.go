package obs

import (
	"fmt"
	"io"
	"math/bits"
)

// HistID names one of the tracer's fixed latency histograms.
type HistID int

// The tracer's histograms. The set is fixed so every run reports the
// same tables in the same order.
const (
	// HSyscallRTT is the application-observed syscall round-trip.
	HSyscallRTT HistID = iota
	// HMsgLatency is the DTU message latency: send initiation to
	// ringbuffer arrival.
	HMsgLatency
	// HXfer is the RDMA transfer time (ReadMem/WriteMem completion).
	HXfer
	// HLinkOcc is the per-link NoC occupancy one packet hop causes
	// (router latency + serialization).
	HLinkOcc
	// HSvcCall is the kernel→service control-call round-trip.
	HSvcCall
	NumHists
)

var histNames = [NumHists]string{
	"syscall_rtt", "msg_latency", "xfer_rtt", "link_occupancy", "svc_call_rtt",
}

func (id HistID) String() string {
	if int(id) < len(histNames) {
		return histNames[id]
	}
	return fmt.Sprintf("hist%d", int(id))
}

// Histogram is a deterministic fixed-bucket latency histogram: bucket
// i holds values whose bit length is i (powers of two), so bucketing
// needs no float math and two runs observing the same values render
// byte-identical tables. Observing is O(1) and allocation-free.
type Histogram struct {
	Name string

	// counts[i] holds values v with bits.Len64(v) == i: bucket 0 is
	// exactly {0}, bucket i covers [2^(i-1), 2^i).
	counts [65]uint64
	n      uint64
	sum    uint64
	max    uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bits.Len64(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the integer mean of the observed values.
func (h *Histogram) Mean() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Merge folds other's observations into h, as if every value other saw
// had been observed on h too. The bucket layout is fixed, so merging is
// a plain component-wise add and stays deterministic regardless of the
// order histograms are merged in.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) of the observed values, clamped to the largest
// observed value, 0 when empty. The result is a deterministic upper
// estimate that never exceeds Max: percentile tables are stable
// run-to-run because only integer counts are compared.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	// rank = ceil(q * n), clamped to [1, n].
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			return min(bucketUpper(i), h.max)
		}
	}
	return h.max
}

// WriteCSV renders the histograms as a CSV summary table, one row per
// histogram, in the given order.
func WriteCSV(w io.Writer, hists []*Histogram) error {
	if _, err := fmt.Fprintln(w, "hist,count,mean,p50,p90,p99,max"); err != nil {
		return err
	}
	for _, h := range hists {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n",
			h.Name, h.Count(), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
		if err != nil {
			return err
		}
	}
	return nil
}
