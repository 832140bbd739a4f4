package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are this repository's modules on the M3 path. A CPU profile
// sample is charged to the innermost frame of one of them.
var layers = []string{"sim", "noc", "dtu", "mem", "tile", "core", "kif", "m3", "m3fs", "obs", "fault"}

// shareNames are all categories of host_share.*, in report order. The
// shares of one run add up to 1:
//   - sim_handoff: the goroutine hand-off between the engine and a
//     process: channel operations, which only package sim performs, and
//     scheduler work outside any repro frame;
//   - memmove and malloc: copying and allocation wherever they happen;
//   - gc: the garbage collector and any other runtime work outside a
//     repro frame;
//   - app: the workload package and this benchmark's own code.
var shareNames = append(append([]string{}, layers...), "gc", "app", "sim_handoff", "memmove", "malloc")

// profiler takes a CPU profile of the measured phase, writes it to path
// and adds its samples to per-category CPU time in ns.
type profiler struct {
	path string
	buf  bytes.Buffer
	ns   map[string]int64
	err  error
}

// profileHz is the sampling rate. A measured phase lasts well under a
// second, too short for the default 100 Hz to resolve a layer's share.
const profileHz = 1000

func (p *profiler) start() {
	// StartCPUProfile keeps an already running rate and warns on stderr
	// that it could not set its own.
	runtime.SetCPUProfileRate(profileHz)
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	if err := os.WriteFile(p.path, p.buf.Bytes(), 0o644); err != nil {
		p.err = err
		return
	}
	if err := attribute(p.buf.Bytes(), p.ns); err != nil {
		p.err = fmt.Errorf("%s: %w", p.path, err)
	}
}

// attribute decodes a gzipped pprof CPU profile and adds every sample's
// CPU nanoseconds to its category in into.
func attribute(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs    []string
		samples []sample
		funcs   = make(map[uint64]uint64)   // function id -> name index
		locs    = make(map[uint64][]uint64) // location id -> function ids, innermost first
	)
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		var err error
		switch num {
		case 2: // Profile.sample
			var s sample
			err = fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, b)
				case 2:
					s.values, err = varints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err = fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5: // Profile.function
			var id, name uint64
			err = fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return err
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var frames, compiled []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		frames, compiled = frames[:0], compiled[:0]
		for _, l := range s.locs {
			fns := locs[l]
			for _, f := range fns {
				frames = append(frames, name(f))
			}
			if len(fns) > 0 {
				compiled = append(compiled, name(fns[len(fns)-1]))
			}
		}
		// Go CPU profiles carry (samples, cpu nanoseconds).
		into[classify(frames, compiled)] += int64(s.values[len(s.values)-1])
	}
	return nil
}

// schedFrames are runtime scheduler entry points: outside any repro
// frame they are the cost of waking and parking the goroutines the
// engine hands off between.
var schedFrames = []string{
	"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm",
}

// classify names the category of one sample's stack, innermost frame
// first. frames includes inlined calls; compiled has one frame per
// compiled function, so a call inlined into its caller (such as a
// disabled tracer's On guard) is charged to the caller's layer.
func classify(frames, compiled []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	if len(frames) > 0 && frames[0] == "runtime.memmove" {
		return "memmove"
	}
	for _, f := range frames {
		switch {
		case f == "runtime.mallocgc":
			return "malloc"
		case strings.HasPrefix(f, "runtime.chansend"), strings.HasPrefix(f, "runtime.chanrecv"):
			return "sim_handoff"
		}
	}
	for _, f := range compiled {
		switch {
		case strings.HasPrefix(f, "repro/internal/"):
			l := strings.TrimPrefix(f, "repro/internal/")
			l = l[:strings.IndexAny(l+".", "./")]
			for _, name := range layers {
				if l == name {
					return l
				}
			}
			return "app"
		case strings.HasPrefix(f, "repro/"), strings.HasPrefix(f, "main."):
			return "app"
		}
	}
	for _, f := range frames {
		for _, s := range schedFrames {
			if f == s {
				return "sim_handoff"
			}
		}
	}
	return "gc"
}

var errProto = errors.New("malformed profile")

// fields calls fn for every field of one protobuf message, with the
// value of varint and fixed-width fields and the bytes of
// length-delimited ones.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends one occurrence of a repeated integer field, packed or
// not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
