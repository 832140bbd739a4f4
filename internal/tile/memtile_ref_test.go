package tile

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/dtu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// refQueue is the process-based request queue of the reference memory
// tile.
type refQueue struct {
	items []*noc.Packet
	avail *sim.Signal
}

func (q *refQueue) send(pkt *noc.Packet) {
	q.items = append(q.items, pkt)
	q.avail.Notify()
}

func (q *refQueue) recv(p *sim.Process) *noc.Packet {
	for len(q.items) == 0 {
		q.avail.Wait(p)
	}
	pkt := q.items[0]
	q.items = q.items[1:]
	if len(q.items) > 0 {
		q.avail.Notify()
	}
	return pkt
}

// refMemTile is the reference memory tile: one spawned daemon process
// per DRAM port, each blocking in refAccess and Network.Send.
type refMemTile struct {
	net   *noc.Network
	node  noc.NodeID
	dram  *mem.DRAM
	delay func(sim.Time) sim.Time
	reqs  *refQueue
}

func newRefMemTile(eng *sim.Engine, net *noc.Network, node noc.NodeID, dram *mem.DRAM, delay func(sim.Time) sim.Time) {
	m := &refMemTile{net: net, node: node, dram: dram, delay: delay, reqs: &refQueue{avail: sim.NewSignal(eng)}}
	net.Attach(node, m)
	for i := 0; i < dram.Ports().Capacity(); i++ {
		eng.Spawn(fmt.Sprintf("memtile%d-w%d", node, i), m.serve)
	}
}

func (m *refMemTile) Deliver(pkt *noc.Packet) {
	if pkt.Corrupt {
		return
	}
	pkt.Retain = true
	m.reqs.send(pkt)
}

// refAccess is the process form of a DRAM access: acquire a port, pay
// the latency and any brownout, copy, stream with the port held.
func (m *refMemTile) refAccess(p *sim.Process, write bool, addr int, buf []byte, stream func()) error {
	if addr < 0 || addr+len(buf) > m.dram.Size() {
		return fmt.Errorf("mem: DRAM access [%d,%d) out of range [0,%d)", addr, addr+len(buf), m.dram.Size())
	}
	m.dram.Ports().Acquire(p, 1)
	p.Sleep(m.dram.Latency())
	if m.delay != nil {
		if extra := m.delay(p.Now()); extra > 0 {
			m.dram.BrownoutCycles += extra
			p.Sleep(extra)
		}
	}
	var err error
	if write {
		err = m.dram.Poke(addr, buf)
	} else {
		err = m.dram.Peek(addr, buf)
	}
	if err != nil {
		panic(err)
	}
	if stream != nil {
		stream()
	}
	m.dram.Ports().Release(1)
	return nil
}

func (m *refMemTile) serve(p *sim.Process) {
	p.SetDaemon()
	for {
		pkt := m.reqs.recv(p)
		switch req := pkt.Payload.(type) {
		case *dtu.MemReadReq:
			buf := m.net.NewPayload(req.Len)
			resp := &dtu.MemResp{OpID: req.OpID}
			src := req.Src
			m.net.FreePacket(pkt)
			err := m.refAccess(p, false, req.Addr, buf, func() {
				resp.Data = buf
				out := m.net.NewPacket()
				out.Src, out.Dst, out.Size = m.node, src, dtu.HeaderSize+len(buf)
				out.Payload = resp
				m.net.Send(p, out)
			})
			if err != nil {
				m.net.FreePayload(buf)
				resp.Err = err.Error()
				out := m.net.NewPacket()
				out.Src, out.Dst, out.Size = m.node, src, 16
				out.Payload = resp
				m.net.Send(p, out)
			}
		case *dtu.MemWriteReq:
			resp := &dtu.MemResp{OpID: req.OpID}
			src := req.Src
			m.net.FreePacket(pkt)
			err := m.refAccess(p, true, req.Addr, req.Data, nil)
			m.net.FreePayload(req.Data)
			if err != nil {
				resp.Err = err.Error()
			}
			out := m.net.NewPacket()
			out.Src, out.Dst, out.Size = m.node, src, 16
			out.Payload = resp
			m.net.Send(p, out)
		}
	}
}

// memLoad runs one seeded RDMA stream against the memory tile: PEs
// read and write DRAM through endpoints of which some reach past the
// module's end, optionally over a lossy NoC with retries armed and
// through a brownout window, on a contended or an unlimited mesh.
func memLoad(seed uint64, ports int, ref bool) (log []string, events uint64, end sim.Time) {
	rng := sim.NewRand(seed)
	eng := sim.NewEngine()
	cfg := Homogeneous(2 + rng.Intn(6))
	cfg.DRAM = mem.DRAMConfig{Size: 256 << 10, Ports: ports, Latency: sim.Time(1 + rng.Intn(40))}
	cfg.NoC.Unlimited = rng.Intn(4) == 0
	var delay func(sim.Time) sim.Time
	if rng.Intn(2) == 0 {
		from, to, extra := sim.Time(rng.Intn(3000)), sim.Time(rng.Intn(6000)), sim.Time(1+rng.Intn(200))
		delay = func(now sim.Time) sim.Time {
			if now >= from && now < to {
				return extra
			}
			return 0
		}
	}
	var p *Platform
	if ref {
		p = newPlatform(eng, cfg)
		newRefMemTile(eng, p.Net, p.DRAMNode, p.DRAM, delay)
	} else {
		p = NewPlatform(eng, cfg)
		p.DRAM.SetFaultDelay(delay)
	}
	if rng.Intn(3) == 0 {
		for _, pe := range p.PEs {
			pe.DTU.EnableFaults(&dtu.FaultConfig{Timeout: 400})
		}
		p.Net.SetFaultHook(func(from, to noc.NodeID, pkt *noc.Packet) noc.LinkFault {
			switch sim.Hash(seed, uint64(from), uint64(to), uint64(eng.Now())) % 60 {
			case 0:
				return noc.LinkDrop
			case 1:
				return noc.LinkCorrupt
			}
			return noc.LinkOK
		})
	}
	for i, pe := range p.PEs {
		if err := pe.DTU.Configure(0, dtu.Endpoint{Type: dtu.EpMemory, MemTarget: p.DRAMNode,
			MemAddr: rng.Intn(240 << 10), MemSize: 32 << 10, MemPerms: dtu.PermRW}); err != nil {
			panic(err)
		}
		ops := make([][3]int, rng.Intn(30))
		for j := range ops {
			ops[j] = [3]int{rng.Intn(2), rng.Intn(28 << 10), 1 + rng.Intn(4<<10)}
		}
		pe.Start("client", func(c *Ctx) {
			for j, op := range ops {
				c.Compute(sim.Time(rng.Intn(50)))
				buf := make([]byte, op[2])
				var err error
				if op[0] == 0 {
					err = pe.DTU.ReadMem(c.P, 0, op[1], buf)
				} else {
					for k := range buf {
						buf[k] = byte(i*13 + j + k)
					}
					err = pe.DTU.WriteMem(c.P, 0, op[1], buf)
				}
				h := fnv.New64a()
				h.Write(buf)
				log = append(log, fmt.Sprintf("%d: pe%d op %d err=%v sum=%x", c.Now(), i, j, err, h.Sum64()))
			}
		})
	}
	end = eng.Run()
	log = append(log, fmt.Sprintf("brownout %d port util %.9f wait %.9f",
		p.DRAM.BrownoutCycles, p.DRAM.Ports().Utilization(), p.DRAM.Ports().AvgWait()))
	return log, eng.ExecutedEvents(), end
}

// TestMemTileMatchesProcessReference: the memory tile's Station port
// workers, AccessThen and SendThen schedule event for event what the
// spawned worker processes did, for every DRAM port count from 1 to
// 64: same completions and data, same port statistics, same
// executed-event count and end time.
func TestMemTileMatchesProcessReference(t *testing.T) {
	for _, ports := range []int{1, 2, 3, 4, 8, 16, 32, 64} {
		for seed := uint64(1); seed <= 25; seed++ {
			refLog, refEvents, refEnd := memLoad(seed, ports, true)
			log, events, end := memLoad(seed, ports, false)
			if !reflect.DeepEqual(log, refLog) || events != refEvents || end != refEnd {
				t.Fatalf("%d ports, seed %d: station ran %d events to %d, reference %d to %d\nstation:   %v\nreference: %v",
					ports, seed, events, end, refEvents, refEnd, log, refLog)
			}
		}
	}
}
