// Package mem models the memories of the prototype platform: the
// per-PE scratchpad memory (SPM) and the shared DRAM module.
//
// Contents are held as real bytes so that software-level protocols
// (message payloads, file data, pipe ringbuffers) move actual data and
// can be checked end-to-end, not just timed.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// SPM is a scratchpad memory: the only directly addressable memory of a
// PE in the prototype platform (the paper's Tomahawk PEs have 64 KiB
// for code and 64 KiB for data; we model the data SPM).
//
// Local loads/stores are accounted as core compute cycles by the tile
// layer; the SPM itself is untimed storage with bounds checking.
type SPM struct {
	data []byte
}

// NewSPM returns a zeroed scratchpad of the given size in bytes.
func NewSPM(size int) *SPM {
	if size <= 0 {
		panic("mem: SPM size must be positive")
	}
	return &SPM{data: make([]byte, size)}
}

// Size returns the scratchpad capacity in bytes.
func (s *SPM) Size() int { return len(s.data) }

// Read copies len(buf) bytes starting at addr into buf.
func (s *SPM) Read(addr int, buf []byte) error {
	if err := s.check(addr, len(buf)); err != nil {
		return err
	}
	copy(buf, s.data[addr:])
	return nil
}

// Write copies buf into the scratchpad starting at addr.
func (s *SPM) Write(addr int, buf []byte) error {
	if err := s.check(addr, len(buf)); err != nil {
		return err
	}
	copy(s.data[addr:], buf)
	return nil
}

func (s *SPM) check(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > len(s.data) {
		return fmt.Errorf("mem: SPM access [%d,%d) out of range [0,%d)", addr, addr+n, len(s.data))
	}
	return nil
}

// DRAM models the platform's single external memory module. Accesses
// contend for a fixed number of ports; each access pays a fixed row
// latency, while streaming bandwidth is modelled by the NoC link into
// the memory tile (8 B/cycle end to end, as the paper's DTU achieves).
//
// The module is hardware, so an access runs as event callbacks
// (AccessThen), not as a blocking call of a process.
type DRAM struct {
	eng     *sim.Engine
	size    int
	data    pageStore
	ports   *sim.Resource
	latency sim.Time
	// release frees one port; built once, handed to every access.
	release func()
	// accesses heads the freelist of in-progress access states.
	accesses *access

	// faultDelay, when installed, returns extra access latency at a
	// given simulated time (fault injection: brownout windows).
	faultDelay func(now sim.Time) sim.Time
	// BrownoutCycles accumulates the injected extra latency.
	BrownoutCycles sim.Time
}

// DRAMConfig parameterizes a DRAM module.
type DRAMConfig struct {
	// Size in bytes.
	Size int
	// Ports is the number of concurrent accesses (default 1).
	Ports int
	// Latency is the fixed access latency in cycles (default 16).
	Latency sim.Time
}

// NewDRAM returns a zeroed DRAM module.
func NewDRAM(eng *sim.Engine, cfg DRAMConfig) *DRAM {
	if cfg.Size <= 0 {
		panic("mem: DRAM size must be positive")
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.Latency == 0 {
		cfg.Latency = 16
	}
	d := &DRAM{
		eng:     eng,
		size:    cfg.Size,
		data:    pageStore{index: make([]uint32, (cfg.Size+pageSize-1)/pageSize)},
		ports:   sim.NewResource(eng, cfg.Ports),
		latency: cfg.Latency,
	}
	d.release = func() { d.ports.Release(1) }
	return d
}

// Size returns the module capacity in bytes.
func (d *DRAM) Size() int { return d.size }

// Latency returns the fixed access latency in cycles.
func (d *DRAM) Latency() sim.Time { return d.latency }

// Ports exposes the port resource for utilisation statistics.
func (d *DRAM) Ports() *sim.Resource { return d.ports }

// AccessThen performs a timed read or write of len(buf) bytes at addr
// as event callbacks: it waits for a port (FIFO), pays the access
// latency plus any brownout delay, copies the bytes, and then calls
// held with the port still held. held models the data streaming out of
// or into the module, typically a NoC send; it must call release
// exactly once when the stream is done, which frees the port. A
// range error is returned at once, before any port is taken, and held
// never runs.
func (d *DRAM) AccessThen(write bool, addr int, buf []byte, held func(release func())) error {
	if err := d.check(addr, len(buf)); err != nil {
		return err
	}
	a := d.accesses
	if a == nil {
		a = &access{d: d}
		a.onPort, a.onLatency, a.onReady = a.ported, a.latencyDone, a.ready
	} else {
		d.accesses = a.next
		a.next = nil
	}
	a.write, a.addr, a.buf, a.held = write, addr, buf, held
	d.ports.AcquireThen(nil, 1, a.onPort)
	return nil
}

// access is the pooled state of one DRAM access; its callbacks are
// built once per object.
type access struct {
	d     *DRAM
	write bool
	addr  int
	buf   []byte
	held  func(release func())
	// onPort runs once a port is held, onLatency after the access
	// latency, onReady after any brownout delay.
	onPort, onLatency, onReady func()
	next                       *access
}

func (a *access) ported() { a.d.eng.Schedule(a.d.latency, a.onLatency) }

func (a *access) latencyDone() {
	d := a.d
	if d.faultDelay != nil {
		if extra := d.faultDelay(d.eng.Now()); extra > 0 {
			// A brownout slows the module down while the port is held,
			// so the slowdown also propagates as queueing delay.
			d.BrownoutCycles += extra
			d.eng.Schedule(extra, a.onReady)
			return
		}
	}
	a.ready()
}

func (a *access) ready() {
	d := a.d
	if a.write {
		d.data.write(a.addr, a.buf)
	} else {
		d.data.read(a.addr, a.buf)
	}
	held := a.held
	a.buf, a.held, a.next = nil, nil, d.accesses
	d.accesses = a
	held(d.release)
}

// SetFaultDelay installs (or, with nil, removes) the brownout hook
// consulted on every access. Only internal/fault may call this
// (m3vet: faultsite).
func (d *DRAM) SetFaultDelay(fn func(now sim.Time) sim.Time) { d.faultDelay = fn }

// Peek copies bytes out of the module without simulated timing. It is
// meant for test assertions and for loading initial contents.
func (d *DRAM) Peek(addr int, buf []byte) error {
	if err := d.check(addr, len(buf)); err != nil {
		return err
	}
	d.data.read(addr, buf)
	return nil
}

// Poke copies bytes into the module without simulated timing.
func (d *DRAM) Poke(addr int, buf []byte) error {
	if err := d.check(addr, len(buf)); err != nil {
		return err
	}
	d.data.write(addr, buf)
	return nil
}

// Resident returns the host bytes that hold the module's written
// pages, whole slabs included; never-written memory costs nothing.
func (d *DRAM) Resident() int { return len(d.data.slabs) * slabSize }

func (d *DRAM) check(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > d.size {
		return fmt.Errorf("mem: DRAM access [%d,%d) out of range [0,%d)", addr, addr+n, d.size)
	}
	return nil
}

// The DRAM's contents live in a page store, so host memory follows
// what the simulated software wrote rather than the module's size: a
// 512 MiB module costs a 512 KiB index until something is written.
// Pages get their slots in first-write order, packed into slabs, so
// the pages of many small files share slabs instead of each claiming
// an aligned chunk, and a page costs no heap object of its own. A slab
// holds 256 KiB: every slab is a large object that Go allocates on a
// slow path of its own, and 64 KiB slabs made that path cost untar16
// several percent of its run time.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	slabPages = 64
	slabSize  = slabPages * pageSize
)

type pageStore struct {
	// index holds each page's slot number plus one; 0 means the page
	// was never written and reads as zeros. It holds no pointers, so
	// the GC never scans it.
	index []uint32
	// slabs hold the written pages: slot s lives in slabs[s/slabPages]
	// at (s%slabPages)*pageSize.
	slabs []*[slabSize]byte
	// used counts the slots handed out.
	used uint32
}

// page returns the bytes of slot s.
func (ps *pageStore) page(s uint32) []byte {
	off := int(s%slabPages) * pageSize
	return ps.slabs[s/slabPages][off : off+pageSize]
}

// read copies the bytes at addr into buf; a never-written page reads
// as zeros and allocates nothing. The range is checked by the caller.
func (ps *pageStore) read(addr int, buf []byte) {
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(buf), pageSize-off)
		if s := ps.index[addr>>pageShift]; s == 0 {
			clear(buf[:n])
		} else {
			copy(buf[:n], ps.page(s - 1)[off:])
		}
		addr, buf = addr+n, buf[n:]
	}
}

// write copies buf to addr, handing a page its slot on its first
// write. The range is checked by the caller.
func (ps *pageStore) write(addr int, buf []byte) {
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(buf), pageSize-off)
		s := ps.index[addr>>pageShift]
		if s == 0 {
			if ps.used%slabPages == 0 {
				ps.slabs = append(ps.slabs, new([slabSize]byte))
			}
			ps.used++
			s = ps.used
			ps.index[addr>>pageShift] = s
		}
		copy(ps.page(s - 1)[off:], buf[:n])
		addr, buf = addr+n, buf[n:]
	}
}
