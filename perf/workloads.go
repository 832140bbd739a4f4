package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/m3"
	"repro/internal/m3fs"
	//m3vet:allow crosslayer host-side reporting reads the link-busy metric name; no PE-side NoC access
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

// kind selects a workload's client program.
type kind uint8

const (
	kindUntar kind = iota // unpack a seeded archive, rounds times
	kindMeta              // walk a seeded tree, rounds times
	kindTail              // rounds open-loop arrivals of stat and read
)

// spec is one workload of the benchmark. README.md says why each was
// chosen and which layers it separates.
type spec struct {
	name string
	kind kind
	// fig6 selects the Figure-6 platform (512 MiB DRAM with 64 ports,
	// unlimited NoC, 384 MiB m3fs region); otherwise the platform
	// defaults apply (64 MiB DRAM, one port, contended mesh).
	fig6    bool
	clients int
	rounds  int
	// faults arms the seeded packet-loss plan.
	faults bool
}

var specs = []spec{
	{name: "untar16", kind: kindUntar, fig6: true, clients: 16, rounds: 1},
	{name: "meta16", kind: kindMeta, fig6: true, clients: 16, rounds: 20},
	{name: "lossy4", kind: kindUntar, clients: 4, rounds: 4, faults: true},
	{name: "tail4", kind: kindTail, clients: 4, rounds: 2000},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// smoke shrinks a workload to two clients and a few rounds for the
// tier-1 smoke test.
func (s spec) smoke() spec {
	s.clients = 2
	s.rounds = min(s.rounds, 2)
	if s.kind == kindTail {
		s.rounds = 40
	}
	return s
}

// Application and platform parameters.
const (
	// tarHeaderSize and tarHeaderCost are workload.Tar's header size and
	// the cycles it charges to build or parse one header.
	tarHeaderSize = 512
	tarHeaderCost = 2000
	// findMatchCost is workload.Find's per-item name match.
	findMatchCost = 3000

	fig6DRAMSize = 512 << 20
	fig6Ports    = 64
	fig6FSRegion = 384 << 20

	lossDrop    = 0.01
	lossCorrupt = 0.002

	// tailInterval is one tail4 client's mean inter-arrival gap. The
	// spike of tailSpikeLen back-to-back arrivals halfway through builds
	// the queue the tail comes from.
	tailInterval sim.Time = 10000
	tailSpikeLen          = 40
	tailJitter            = 0.15
	// tailThinkMax bounds the seeded application work (request parsing)
	// each arrival does before its call.
	tailThinkMax = 1000
	// tailDataFile numbers tail4's data file for the content generator.
	tailDataFile = 1000
)

// SLO names of tail4 (package constants: m3vet sloname), as in m3slo.
const (
	sloTail  = "e2e_latency"
	sloAvail = "e2e_availability"
)

// witness identifies a run's simulated behaviour: executed events and
// the final cycle. Identical inputs must give identical witnesses.
type witness struct {
	Events uint64 `json:"events"`
	Cycles uint64 `json:"cycles"`
}

// iterResult is what one iteration reports to the parent process.
type iterResult struct {
	SetupNS    int64              `json:"setup_ns"`
	RunNS      int64              `json:"run_ns"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Events     uint64             `json:"events"`
	SimCycles  float64            `json:"sim_cycles"`
	SimP50     uint64             `json:"sim_p50"`
	SimP99     uint64             `json:"sim_p99"`
	Witness    witness            `json:"witness"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Err        string             `json:"err,omitempty"`
}

// iterOpts selects the instrumentation of one iteration.
type iterOpts struct {
	// hostOps times every OS call on the host clock.
	hostOps bool
	// prof, if set, profiles the measured phase.
	prof *profiler
	// counters attaches a metrics-only tracer so per-link busy cycles
	// are counted (tail4 always has a tracer).
	counters bool
}

// inputs are a workload's generated inputs for one seed.
type inputs struct {
	seed    uint64
	sizes   [][]int
	digests [][]uint32
	trees   []tree
}

func makeInputs(sp spec, seed uint64) *inputs {
	in := &inputs{seed: seed}
	for c := 0; c < sp.clients; c++ {
		switch sp.kind {
		case kindUntar:
			sizes := tarSizes(seed, c)
			ds := make([]uint32, len(sizes))
			for i, s := range sizes {
				ds[i] = fileDigest(seed, c, i, s)
			}
			in.sizes = append(in.sizes, sizes)
			in.digests = append(in.digests, ds)
		case kindMeta:
			in.trees = append(in.trees, treeFor(seed, c))
		}
	}
	return in
}

// phase is the measured phase: a start barrier all clients pass
// together and the point where the last one leaves.
type phase struct {
	n        int
	ready    int
	left     int
	startSig *sim.Signal
	// durations are the clients' simulated measured times.
	durations []sim.Time
	onBegin   func()
	onEnd     func()
}

// arrive blocks p until every client reached the barrier, exactly as
// the harness behind `m3sim -n` does.
func (ph *phase) arrive(p *sim.Process) {
	ph.ready++
	if ph.ready == ph.n {
		ph.onBegin()
		ph.startSig.Broadcast()
	} else {
		ph.startSig.Wait(p)
	}
}

// leave records one client's measured time and reports whether it was
// the last client to finish.
func (ph *phase) leave(d sim.Time) bool {
	ph.durations = append(ph.durations, d)
	ph.left++
	if ph.left == ph.n {
		ph.onEnd()
		return true
	}
	return false
}

// snapshot is the layer counters at one instant of simulated time.
type snapshot struct {
	now                                                 sim.Time
	msgsSent, bytesMoved, retransmits, dropped, denied  uint64
	packets, nocBytes, linkBusy, syscalls, serviceCalls uint64
	dramBusy, kernelBusy                                float64
}

func takeSnapshot(plat *tile.Platform, kern *core.Kernel, tr *obs.Tracer) snapshot {
	s := snapshot{now: plat.Eng.Now()}
	for _, pe := range plat.PEs {
		st := pe.DTU.Stats
		s.msgsSent += st.MsgsSent
		s.bytesMoved += st.BytesRead + st.BytesWritten
		s.retransmits += st.Retransmits
		s.dropped += st.MsgsDropped
		s.denied += st.SendsDenied
	}
	s.packets, s.nocBytes = plat.Net.PacketsSent, plat.Net.BytesSent
	for _, e := range tr.Metrics().Entries() {
		if e.Name == noc.MLinkBusy {
			s.linkBusy += uint64(e.Value())
		}
	}
	for _, sc := range kern.Stats.SortedSyscalls() {
		s.syscalls += sc.Count
	}
	s.serviceCalls = kern.Stats.ServiceCalls
	// Utilization is busy time over capacity and elapsed time, so
	// multiplying back gives busy cycles per unit of capacity.
	s.dramBusy = plat.DRAM.Ports().Utilization() * float64(s.now)
	s.kernelBusy = kern.CPU().Utilization() * float64(s.now)
	return s
}

// counts turns two snapshots into the per-layer counts of the phase.
func counts(a, b snapshot) map[string]float64 {
	span := float64(b.now - a.now)
	util := func(x, y float64) float64 {
		if span == 0 {
			return 0
		}
		return (y - x) / span
	}
	return map[string]float64{
		"dtu.msgs_sent":        float64(b.msgsSent - a.msgsSent),
		"dtu.bytes_moved":      float64(b.bytesMoved - a.bytesMoved),
		"dtu.retransmits":      float64(b.retransmits - a.retransmits),
		"dtu.msgs_dropped":     float64(b.dropped - a.dropped),
		"dtu.sends_denied":     float64(b.denied - a.denied),
		"noc.packets":          float64(b.packets - a.packets),
		"noc.bytes":            float64(b.nocBytes - a.nocBytes),
		"noc.link_busy_cycles": float64(b.linkBusy - a.linkBusy),
		"core.syscalls":        float64(b.syscalls - a.syscalls),
		"core.service_calls":   float64(b.serviceCalls - a.serviceCalls),
		"core.kernel_util":     util(a.kernelBusy, b.kernelBusy),
		"mem.dram_port_util":   util(a.dramBusy, b.dramBusy),
	}
}

// runIteration boots a fresh platform through the layer packages, as
// cmd/m3sim does, runs the workload once and checks its outputs.
func runIteration(sp spec, in *inputs, opt iterOpts) iterResult {
	var res iterResult
	var fails []string
	fail := func(err error) { fails = append(fails, err.Error()) }

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	goroutines := runtime.NumGoroutine()

	hostStart := time.Now()
	var hostRun0, hostRun1 time.Time
	eng := sim.NewEngine()

	var tr *obs.Tracer
	var cp *obs.CritPath
	armed := false
	switch {
	case sp.kind == kindTail:
		slos := obs.NewSLOSet()
		slos.Objective(sloTail, obs.SLOConfig{Objective: 0.99, LatencyBound: 1 << 17, Window: 1 << 20})
		slos.Objective(sloAvail, obs.SLOConfig{Objective: 0.999, Window: 1 << 20})
		cp = obs.NewCritPath(obs.CritPathOptions{Exemplars: 4, SLO: slos})
		tr = obs.New(obs.Options{Sink: func(ev obs.Event) {
			if armed {
				cp.Consume(ev)
			}
		}})
	case opt.counters:
		tr = obs.New(obs.Options{})
	}
	cfg := tile.Homogeneous(2 + sp.clients)
	cfg.Obs = tr
	fsCfg := m3fs.Config{}
	if sp.fig6 {
		cfg.DRAM.Size, cfg.DRAM.Ports, cfg.NoC.Unlimited = fig6DRAMSize, fig6Ports, true
		fsCfg.RegionSize = fig6FSRegion
	}
	plat := tile.NewPlatform(eng, cfg)
	kern := core.Boot(plat, 0)
	if _, err := kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(kern, fsCfg, nil)); err != nil {
		res.Err = err.Error()
		return res
	}

	log := &opLog{eng: eng, host: opt.hostOps}
	var reqLat []uint64
	var snap0, snap1 snapshot
	var events0 uint64
	ph := &phase{n: sp.clients, startSig: sim.NewSignal(eng)}
	ph.onBegin = func() {
		//m3vet:allow timetaint host timing of the measured phase is the benchmark's output, never simulation state
		hostRun0 = time.Now()
		snap0 = takeSnapshot(plat, kern, tr)
		events0 = eng.ExecutedEvents()
		armed = true
		if opt.prof != nil {
			opt.prof.start()
		}
	}
	ph.onEnd = func() {
		//m3vet:allow timetaint host timing of the measured phase is the benchmark's output, never simulation state
		hostRun1 = time.Now()
		if opt.prof != nil {
			opt.prof.stop()
		}
		snap1 = takeSnapshot(plat, kern, tr)
		res.Events = eng.ExecutedEvents() - events0
		armed = false
	}

	for c := 0; c < sp.clients; c++ {
		_, err := kern.StartInit(fmt.Sprintf("app%d", c), tile.CoreXtensa, func(ctx *tile.Ctx) {
			env := m3.NewEnv(ctx, kern)
			mos, err := workload.NewM3OS(env)
			if err != nil {
				fail(err)
				return
			}
			if err := setup(sp, in, c, mos); err != nil {
				fail(fmt.Errorf("client %d setup: %w", c, err))
				return
			}
			ph.arrive(ctx.P)
			start := ctx.Now()
			los := loggedOS{OS: mos, log: log}
			switch sp.kind {
			case kindUntar:
				for r := 0; r < sp.rounds && err == nil; r++ {
					err = untar(los)
				}
			case kindMeta:
				for w := 0; w < sp.rounds && err == nil; w++ {
					err = walk(los, in.trees[c])
				}
			case kindTail:
				var lat []uint64
				lat, err = arrivals(ctx, los, sp, in.seed, c)
				reqLat = append(reqLat, lat...)
			}
			if err != nil {
				fail(fmt.Errorf("client %d: %w", c, err))
				env.Exit(1)
				return
			}
			if ph.leave(ctx.Now()-start) && sp.kind == kindUntar {
				// Every other client has finished, so reading all
				// outputs back cannot disturb a measured phase.
				all := *mos
				all.Prefix = ""
				if err := verifyUntar(&all, in); err != nil {
					fail(err)
				}
			}
			env.Exit(0)
		})
		if err != nil {
			res.Err = err.Error()
			return res
		}
	}
	if sp.faults {
		plan := fault.Plan{Seed: sim.Hash(in.seed, saltFault), DropRate: lossDrop, CorruptRate: lossCorrupt}
		if _, err := fault.Attach(kern, plan); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	end := eng.Run()

	res.Witness = witness{Events: eng.ExecutedEvents(), Cycles: uint64(end)}
	if eng.Deadlocked() {
		fail(errors.New("simulation deadlocked"))
	}
	if ph.left != sp.clients {
		fail(fmt.Errorf("%d of %d clients finished the measured phase", ph.left, sp.clients))
	}
	if snap1.dropped > 0 {
		fail(fmt.Errorf("%d messages dropped (ringbuffer overcommit)", snap1.dropped))
	}
	if cp != nil && cp.Completed() == 0 {
		fail(errors.New("critical-path engine completed no requests"))
	}
	if len(fails) > 0 {
		res.Err = strings.Join(fails, "; ")
		return res
	}

	res.SetupNS = int64(hostRun0.Sub(hostStart))
	res.RunNS = int64(hostRun1.Sub(hostRun0))
	var sum sim.Time
	for _, d := range ph.durations {
		sum += d
	}
	res.SimCycles = float64(sum) / float64(sp.clients)
	// A request is one arrival on tail4, one OS call on meta16 and one
	// client's whole unpack on the untar workloads, the unit of Fig. 6.
	var lat []uint64
	switch sp.kind {
	case kindTail:
		lat = reqLat
	case kindMeta:
		lat = log.all()
	default:
		for _, d := range ph.durations {
			lat = append(lat, uint64(d))
		}
	}
	res.SimP50, res.SimP99 = percentile(lat, 0.50), percentile(lat, 0.99)
	res.Counts = counts(snap0, snap1)
	res.Counts["sim.events"] = float64(res.Events)
	if opt.hostOps {
		addOpCounts(res.Counts, log)
	}
	runtime.ReadMemStats(&ms1)
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Counts["sim.leaked_goroutines"] = float64(runtime.NumGoroutine() - goroutines)
	return res
}

// addOpCounts adds the OS-boundary wrapper's per-call numbers.
func addOpCounts(m map[string]float64, log *opLog) {
	for k := opKind(0); k < numOps; k++ {
		name := "m3." + opNames[k]
		m[name+".calls"] = float64(len(log.cycles[k]))
		m[name+".host_us_p50"] = medianInt(log.hostNS[k]) / 1e3
		m[name+".sim_cycles_p99"] = float64(percentile(log.cycles[k], 0.99))
	}
}

// setup prepares client c's namespace before the start barrier.
func setup(sp spec, in *inputs, c int, os *workload.M3OS) error {
	os.Prefix = fmt.Sprintf("/i%d", c)
	if err := os.Mkdir(""); err != nil {
		return err
	}
	switch sp.kind {
	case kindUntar:
		return tarSetup(os, in, c)
	case kindMeta:
		if err := os.Mkdir("/tree"); err != nil {
			return err
		}
		for _, e := range in.trees[c].entries {
			var err error
			if e.dir {
				err = os.Mkdir(e.path)
			} else {
				err = writeFile(os, e.path, treeFileSize, func(int, []byte) {})
			}
			if err != nil {
				return err
			}
		}
		return nil
	default:
		if err := writeFile(os, "/probe", tailProbeSize, func(int, []byte) {}); err != nil {
			return err
		}
		return writeFile(os, "/data", tailDataSize, func(chunk int, b []byte) {
			fillChunk(in.seed, c, tailDataFile, chunk, b)
		})
	}
}

func memberPath(i int) string { return fmt.Sprintf("/src/file%d.dat", i) }

// writeFile creates path with size bytes, written in chunks that fill
// generates, the way workload's writePattern does.
func writeFile(os workload.OS, path string, size int, fill func(chunk int, b []byte)) error {
	f, err := os.Open(path, workload.Write|workload.Create|workload.Trunc)
	if err != nil {
		return err
	}
	buf := make([]byte, chunkSize)
	for chunk := 0; chunk*chunkSize < size; chunk++ {
		n := min(chunkSize, size-chunk*chunkSize)
		fill(chunk, buf[:n])
		if _, err := f.Write(buf[:n]); err != nil {
			return err
		}
	}
	return f.Close()
}

// tarSetup writes client c's members, packs them into /archive.tar and
// creates /dst: workload.Untar's setup with seeded sizes and contents.
func tarSetup(os workload.OS, in *inputs, c int) error {
	if err := os.Mkdir("/src"); err != nil {
		return err
	}
	sizes := in.sizes[c]
	for i, size := range sizes {
		err := writeFile(os, memberPath(i), size, func(chunk int, b []byte) {
			fillChunk(in.seed, c, i, chunk, b)
		})
		if err != nil {
			return err
		}
	}
	arch, err := os.Open("/archive.tar", workload.Write|workload.Create|workload.Trunc)
	if err != nil {
		return err
	}
	hdr := make([]byte, tarHeaderSize)
	for i, size := range sizes {
		os.Compute(tarHeaderCost)
		name := memberPath(i)
		copy(hdr, name)
		putSize(hdr[100:], size)
		if _, err := arch.Write(hdr); err != nil {
			return err
		}
		f, err := os.Open(name, workload.Read)
		if err != nil {
			return err
		}
		if _, err := workload.CopyAll(os, arch, f, chunkSize); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := arch.Close(); err != nil {
		return err
	}
	return os.Mkdir("/dst")
}

// untar unpacks /archive.tar into /dst with the same calls, in the same
// order, as workload.Untar.
func untar(os workload.OS) error {
	arch, err := os.Open("/archive.tar", workload.Read)
	if err != nil {
		return err
	}
	hdr := make([]byte, tarHeaderSize)
	buf := make([]byte, chunkSize)
	for {
		n, rerr := io.ReadFull(fileReader{arch}, hdr)
		if rerr != nil || n < tarHeaderSize {
			break
		}
		os.Compute(tarHeaderCost)
		name := cstr(hdr[:100])
		base := name[strings.LastIndex(name, "/")+1:]
		out, err := os.Open("/dst/"+base, workload.Write|workload.Create|workload.Trunc)
		if err != nil {
			return err
		}
		for left := getSize(hdr[100:]); left > 0; {
			r, err := arch.Read(buf[:min(chunkSize, left)])
			if r > 0 {
				if _, werr := out.Write(buf[:r]); werr != nil {
					return werr
				}
				left -= r
			}
			if err != nil {
				return err
			}
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return arch.Close()
}

// verifyUntar reads every client's unpacked members back and compares
// them with the generator's digests.
func verifyUntar(os workload.OS, in *inputs) error {
	buf := make([]byte, chunkSize)
	for c, sizes := range in.sizes {
		for i, size := range sizes {
			path := fmt.Sprintf("/i%d/dst/file%d.dat", c, i)
			f, err := os.Open(path, workload.Read)
			if err != nil {
				return fmt.Errorf("verify %s: %w", path, err)
			}
			var h uint32
			got := 0
			for {
				n, err := f.Read(buf)
				h = crc32.Update(h, castagnoli, buf[:n])
				got += n
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return fmt.Errorf("verify %s: %w", path, err)
				}
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("verify %s: %w", path, err)
			}
			if got != size || h != in.digests[c][i] {
				return fmt.Errorf("verify %s: %d bytes crc %08x, want %d bytes crc %08x",
					path, got, h, size, in.digests[c][i])
			}
		}
	}
	return nil
}

// walk visits every item of the tree below /tree the way find does,
// with a stat per item and an open and close per file, and checks what
// it finds against the generator.
func walk(os workload.OS, t tree) error {
	items, matches := 0, 0
	var visit func(dir string) error
	visit = func(dir string) error {
		names, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, name := range names {
			full := dir + "/" + name
			st, err := os.Stat(full)
			if err != nil {
				return err
			}
			os.Compute(findMatchCost)
			items++
			if strings.HasSuffix(name, ".log") {
				matches++
			}
			if st.IsDir {
				if err := visit(full); err != nil {
					return err
				}
				continue
			}
			if st.Size != treeFileSize {
				return fmt.Errorf("%s: size %d, want %d", full, st.Size, treeFileSize)
			}
			f, err := os.Open(full, workload.Read)
			if err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit("/tree"); err != nil {
		return err
	}
	if items != len(t.entries) || matches != t.matches {
		return fmt.Errorf("walk found %d items and %d matches, want %d and %d",
			items, matches, len(t.entries), t.matches)
	}
	return nil
}

// arrivals fires client c's open-loop schedule and returns each
// request's latency, measured from the time it was due.
func arrivals(ctx *tile.Ctx, os workload.OS, sp spec, seed uint64, c int) ([]uint64, error) {
	gen := overload.NewGen(overload.BurstConfig{
		Seed:     sim.Hash(seed, saltArrivals),
		Shape:    overload.ShapeSpike,
		Interval: tailInterval,
		Count:    sp.rounds,
		Jitter:   tailJitter,
		SpikeAt:  tailInterval * sim.Time(sp.rounds) / 2,
		SpikeLen: tailSpikeLen,
	}, uint64(c))
	lat := make([]uint64, 0, sp.rounds)
	buf := make([]byte, chunkSize)
	want := make([]byte, chunkSize)
	base := ctx.Now()
	for i := 0; ; i++ {
		at, ok := gen.Next()
		if !ok {
			return lat, nil
		}
		due := base + at
		if ctx.Now() < due {
			ctx.P.Sleep(due - ctx.Now())
		}
		os.Compute(sim.Hash(seed, saltThink, uint64(c), uint64(i)) % tailThinkMax)
		if i%2 == 0 {
			st, err := os.Stat("/probe")
			if err != nil {
				return nil, err
			}
			if st.Size != tailProbeSize {
				return nil, fmt.Errorf("stat /probe: size %d, want %d", st.Size, tailProbeSize)
			}
		} else {
			chunk := (i / 2) % (tailDataSize / chunkSize)
			fillChunk(seed, c, tailDataFile, chunk, want)
			if err := readChunk(os, chunk, buf, want); err != nil {
				return nil, err
			}
		}
		lat = append(lat, uint64(ctx.Now()-due))
	}
}

// readChunk opens /data, reads one chunk at its offset, checks the
// bytes and closes the file: every read crosses the OS boundary.
func readChunk(os workload.OS, chunk int, buf, want []byte) error {
	f, err := os.Open("/data", workload.Read)
	if err != nil {
		return err
	}
	sf, ok := f.(workload.SeekableFile)
	if !ok {
		return fmt.Errorf("/data is not seekable")
	}
	if _, err := sf.Seek(int64(chunk*chunkSize), io.SeekStart); err != nil {
		return err
	}
	n, err := io.ReadFull(fileReader{f}, buf)
	if err != nil {
		return fmt.Errorf("read /data chunk %d: %w", chunk, err)
	}
	if !bytes.Equal(buf[:n], want) {
		return fmt.Errorf("read /data chunk %d: wrong bytes", chunk)
	}
	return f.Close()
}

// fileReader adapts workload.File to io.Reader for io.ReadFull.
type fileReader struct{ f workload.File }

func (r fileReader) Read(p []byte) (int, error) { return r.f.Read(p) }

func cstr(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

func putSize(b []byte, size int) {
	for i := 0; i < 8; i++ {
		b[i] = byte(size >> (8 * i))
	}
}

func getSize(b []byte) int {
	size := 0
	for i := 0; i < 8; i++ {
		size |= int(b[i]) << (8 * i)
	}
	return size
}
