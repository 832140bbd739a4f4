package main

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// opKind is one kind of call across the OS boundary (libm3's VFS and
// the m3fs client behind it).
type opKind uint8

const (
	opOpen opKind = iota
	opRead
	opWrite
	opStat
	opReaddir
	opClose
	numOps
)

var opNames = [numOps]string{"open", "read", "write", "stat", "readdir", "close"}

// opLog records the simulated latency of every OS call a client makes
// in the measured phase and, in traced iterations, its host time too.
// The simulation runs one goroutine at a time, so clients share it
// without locking.
type opLog struct {
	eng    *sim.Engine
	host   bool
	cycles [numOps][]uint64
	hostNS [numOps][]int64
}

func (l *opLog) begin() (sim.Time, time.Time) {
	if l.host {
		return l.eng.Now(), time.Now()
	}
	return l.eng.Now(), time.Time{}
}

func (l *opLog) end(k opKind, t0 sim.Time, h0 time.Time) {
	if l.host {
		l.hostNS[k] = append(l.hostNS[k], int64(time.Since(h0)))
	}
	l.cycles[k] = append(l.cycles[k], uint64(l.eng.Now()-t0))
}

// all returns every recorded simulated latency.
func (l *opLog) all() []uint64 {
	var out []uint64
	for k := range l.cycles {
		out = append(out, l.cycles[k]...)
	}
	return out
}

// loggedOS is the OS-boundary wrapper: it forwards every call to the
// wrapped OS and records it in the log.
type loggedOS struct {
	workload.OS
	log *opLog
}

func (o loggedOS) Open(path string, flags workload.OpenFlags) (workload.File, error) {
	t, h := o.log.begin()
	f, err := o.OS.Open(path, flags)
	o.log.end(opOpen, t, h)
	if err != nil {
		return nil, err
	}
	return loggedFile{f: f, log: o.log}, nil
}

func (o loggedOS) Stat(path string) (workload.Stat, error) {
	t, h := o.log.begin()
	st, err := o.OS.Stat(path)
	o.log.end(opStat, t, h)
	return st, err
}

func (o loggedOS) ReadDir(path string) ([]string, error) {
	t, h := o.log.begin()
	names, err := o.OS.ReadDir(path)
	o.log.end(opReaddir, t, h)
	return names, err
}

type loggedFile struct {
	f   workload.File
	log *opLog
}

func (f loggedFile) Read(b []byte) (int, error) {
	t, h := f.log.begin()
	n, err := f.f.Read(b)
	f.log.end(opRead, t, h)
	return n, err
}

func (f loggedFile) Write(b []byte) (int, error) {
	t, h := f.log.begin()
	n, err := f.f.Write(b)
	f.log.end(opWrite, t, h)
	return n, err
}

func (f loggedFile) Close() error {
	t, h := f.log.begin()
	err := f.f.Close()
	f.log.end(opClose, t, h)
	return err
}

// Seek is client-local bookkeeping on M3, never a request, so it is not
// logged.
func (f loggedFile) Seek(off int64, whence int) (int64, error) {
	sf, ok := f.f.(workload.SeekableFile)
	if !ok {
		return 0, fmt.Errorf("perf: %T is not seekable", f.f)
	}
	return sf.Seek(off, whence)
}
