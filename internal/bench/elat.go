package bench

import (
	"fmt"

	"repro/internal/linuxos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Experiment E-lat: latency percentiles instead of totals. The same
// open/read/write/stat/close loop runs on M3 and on the Linux model;
// every operation is timed individually into deterministic power-of-2
// histograms (package obs), so the comparison shows the latency
// *distribution* — tails included — not just the mean the breakdown
// figures report. On M3 the structured tracer additionally collects
// the hardware-level histograms (syscall RTT, DTU message latency,
// RDMA transfer time, NoC link occupancy, service-call RTT).

const (
	elatFileSize = 256 << 10
	elatBufSize  = 4 << 10
	elatIters    = 32
)

// opHists is the fixed per-operation histogram set of one system.
type opHists struct {
	hs [5]obs.Histogram
}

var opHistNames = [5]string{"open", "read", "write", "stat", "close"}

const (
	opOpen = iota
	opRead
	opWrite
	opStat
	opClose
)

func newOpHists() *opHists {
	o := &opHists{}
	for i := range o.hs {
		o.hs[i].Name = opHistNames[i]
	}
	return o
}

// all returns the histograms in fixed op order.
func (o *opHists) all() []*obs.Histogram {
	out := make([]*obs.Histogram, len(o.hs))
	for i := range o.hs {
		out[i] = &o.hs[i]
	}
	return out
}

// timedOS wraps a workload.OS so that every Open, Stat, Read, Write
// and Close call runs through rec, which times it against the
// simulation clock and records it: E-lat into per-operation
// histograms, E-tail's Linux side into its request population. Seek
// passes through untimed (on M3 it is client-local bookkeeping, never
// a request).
type timedOS struct {
	workload.OS
	rec func(op int, call func() error) error
}

func (t *timedOS) Open(path string, flags workload.OpenFlags) (workload.File, error) {
	var f workload.File
	err := t.rec(opOpen, func() (err error) {
		f, err = t.OS.Open(path, flags)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &timedFile{f: f, rec: t.rec}, nil
}

func (t *timedOS) Stat(path string) (workload.Stat, error) {
	var st workload.Stat
	err := t.rec(opStat, func() (err error) {
		st, err = t.OS.Stat(path)
		return err
	})
	return st, err
}

// timedFile times the read/write/close calls of one open file.
type timedFile struct {
	f   workload.File
	rec func(op int, call func() error) error
}

func (f *timedFile) Read(buf []byte) (int, error) {
	var n int
	err := f.rec(opRead, func() (err error) {
		n, err = f.f.Read(buf)
		return err
	})
	return n, err
}

func (f *timedFile) Write(buf []byte) (int, error) {
	var n int
	err := f.rec(opWrite, func() (err error) {
		n, err = f.f.Write(buf)
		return err
	})
	return n, err
}

func (f *timedFile) Close() error {
	return f.rec(opClose, f.f.Close)
}

func (f *timedFile) Seek(off int64, whence int) (int64, error) {
	if sf, ok := f.f.(workload.SeekableFile); ok {
		return sf.Seek(off, whence)
	}
	return 0, fmt.Errorf("bench: file is not seekable")
}

// simClock returns the simulation clock of the process behind os.
func simClock(os workload.OS) func() sim.Time {
	if m, ok := os.(*workload.M3OS); ok {
		return m.Env.Ctx.Now
	}
	return os.(*workload.LxOS).Proc.P().Now
}

// elatLoop is the measured phase: elatIters rounds of open, stream the
// file in elatBufSize reads, stat, close, then one rewrite of the file.
// The setup (untimed) created /elat.dat beforehand. Every call is
// observed into h.
func elatLoop(os workload.OS, h *opHists) error {
	clock := simClock(os)
	t := &timedOS{OS: os, rec: func(op int, call func() error) error {
		t0 := clock()
		err := call()
		h.hs[op].Observe(uint64(clock() - t0))
		return err
	}}
	buf := make([]byte, elatBufSize)
	for i := 0; i < elatIters; i++ {
		f, err := t.Open("/elat.dat", workload.Read)
		if err != nil {
			return err
		}
		for {
			n, rerr := f.Read(buf)
			if n == 0 || rerr != nil {
				break
			}
		}
		if _, err := t.Stat("/elat.dat"); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	out, err := t.Open("/elat.out", workload.Write|workload.Create|workload.Trunc)
	if err != nil {
		return err
	}
	for written := 0; written < elatFileSize; written += len(buf) {
		if _, err := out.Write(buf); err != nil {
			return err
		}
	}
	return out.Close()
}

func elatSetup(os workload.OS) error {
	return writeFilePattern(os, "/elat.dat", elatFileSize)
}

// ELatResult holds the E-lat percentile tables.
type ELatResult struct {
	M3, Lx *opHists
	// DTU is the M3 run's hardware-level histogram set, in obs.HistID
	// order.
	DTU []*obs.Histogram
}

// ELat runs experiment E-lat on both systems.
func ELat() (*ELatResult, error) {
	res := &ELatResult{M3: newOpHists(), Lx: newOpHists()}
	elat := func(h *opHists) workload.Benchmark {
		return workload.Benchmark{Name: "elat", PEs: 1, Setup: elatSetup,
			Run: func(os workload.OS) error { return elatLoop(os, h) }}
	}
	tracer := obs.New(obs.Options{})
	if _, err := (Scenario{Workload: elat(res.M3), M3Options: M3Options{Obs: tracer}}).Run(); err != nil {
		return nil, fmt.Errorf("elat on M3: %w", err)
	}
	res.DTU = tracer.Histograms()
	if _, err := (Scenario{Workload: elat(res.Lx), Lx: &LxModel{Profile: linuxos.ProfileXtensa}}).Run(); err != nil {
		return nil, fmt.Errorf("elat on Linux: %w", err)
	}
	return res, nil
}

// Tables renders the E-lat tables.
func (r *ELatResult) Tables() []*Table {
	ops := &Table{Name: "elat_ops", Title: "E-lat: per-operation latency percentiles (cycles)", Rows: [][]string{
		{"op", "system", "count", "mean_cycles", "p50", "p90", "p99", "max"},
	}}
	for i, m3h := range r.M3.all() {
		for _, sh := range []struct {
			name string
			h    *obs.Histogram
		}{{"m3", m3h}, {"lx", r.Lx.all()[i]}} {
			h := sh.h
			ops.Rows = append(ops.Rows, []string{h.Name, sh.name,
				fmt.Sprint(h.Count()), fmt.Sprint(h.Mean()),
				fmt.Sprint(h.Quantile(0.50)), fmt.Sprint(h.Quantile(0.90)),
				fmt.Sprint(h.Quantile(0.99)), fmt.Sprint(h.Max())})
		}
	}
	dtu := &Table{Name: "elat_dtu", Title: "E-lat: M3 hardware-level histograms (cycles)", Rows: [][]string{
		{"hist", "count", "mean_cycles", "p50", "p90", "p99", "max"},
	}}
	for _, h := range r.DTU {
		dtu.Rows = append(dtu.Rows, []string{h.Name,
			fmt.Sprint(h.Count()), fmt.Sprint(h.Mean()),
			fmt.Sprint(h.Quantile(0.50)), fmt.Sprint(h.Quantile(0.90)),
			fmt.Sprint(h.Quantile(0.99)), fmt.Sprint(h.Max())})
	}
	return []*Table{ops, dtu}
}
