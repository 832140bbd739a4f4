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
type DRAM struct {
	data    []byte
	ports   *sim.Resource
	latency sim.Time

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
	return &DRAM{
		data:    make([]byte, cfg.Size),
		ports:   sim.NewResource(eng, cfg.Ports),
		latency: cfg.Latency,
	}
}

// Size returns the module capacity in bytes.
func (d *DRAM) Size() int { return len(d.data) }

// Latency returns the fixed access latency in cycles.
func (d *DRAM) Latency() sim.Time { return d.latency }

// Ports exposes the port resource for utilisation statistics.
func (d *DRAM) Ports() *sim.Resource { return d.ports }

// Access performs a timed read or write of len(buf) bytes at addr: it
// acquires a port, pays the access latency, runs stream (which models
// the data streaming out of / into the module, typically a NoC send
// performed while the port is held), and releases the port. stream may
// be nil for untimed accesses.
func (d *DRAM) Access(p *sim.Process, write bool, addr int, buf []byte, stream func()) error {
	if err := d.check(addr, len(buf)); err != nil {
		return err
	}
	d.ports.Acquire(p, 1)
	p.Sleep(d.latency)
	if d.faultDelay != nil {
		if extra := d.faultDelay(p.Now()); extra > 0 {
			// A brownout slows the module down while the port is held,
			// so the slowdown also propagates as queueing delay.
			d.BrownoutCycles += extra
			p.Sleep(extra)
		}
	}
	if write {
		copy(d.data[addr:], buf)
	} else {
		copy(buf, d.data[addr:])
	}
	if stream != nil {
		stream()
	}
	d.ports.Release(1)
	return nil
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
	copy(buf, d.data[addr:])
	return nil
}

// Poke copies bytes into the module without simulated timing.
func (d *DRAM) Poke(addr int, buf []byte) error {
	if err := d.check(addr, len(buf)); err != nil {
		return err
	}
	copy(d.data[addr:], buf)
	return nil
}

func (d *DRAM) check(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > len(d.data) {
		return fmt.Errorf("mem: DRAM access [%d,%d) out of range [0,%d)", addr, addr+n, len(d.data))
	}
	return nil
}
