package dtu

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// refQueue is the process-based request queue of the reference request
// server.
type refQueue struct {
	items []*noc.Packet
	avail *sim.Signal
}

func (q *refQueue) Put(pkt *noc.Packet) {
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

// newRefDTU builds a DTU whose request server is the reference: a
// spawned daemon process receiving from a refQueue and blocking in
// Network.Send, against which the Station server is checked.
func newRefDTU(eng *sim.Engine, net *noc.Network, node noc.NodeID, spm *mem.SPM, numEPs int) *DTU {
	d := newDTU(eng, net, node, spm, numEPs)
	q := &refQueue{avail: sim.NewSignal(eng)}
	d.reqs = q
	eng.Spawn(fmt.Sprintf("dtu%d-server", node), func(p *sim.Process) {
		p.SetDaemon()
		for {
			refServe(d, p, q.recv(p))
		}
	})
	return d
}

// refServe is the reference server's loop body.
func refServe(d *DTU, p *sim.Process, pkt *noc.Packet) {
	switch req := pkt.Payload.(type) {
	case *MemReadReq:
		buf := d.net.NewPayload(req.Len)
		resp := req.Resp
		if err := d.spm.Read(req.Addr, buf); err != nil {
			resp.Err = err.Error()
			d.net.FreePayload(buf)
		} else {
			resp.Data = buf
		}
		out := d.net.NewPacket()
		out.Src, out.Dst, out.Size = d.node, req.Src, msgWireSize(len(resp.Data))
		out.Payload = resp
		d.net.FreePacket(pkt)
		d.net.Send(p, out)
	case *MemWriteReq:
		resp := req.Resp
		if err := d.spm.Write(req.Addr, req.Data); err != nil {
			resp.Err = err.Error()
		}
		d.net.FreePayload(req.Data)
		out := d.net.NewPacket()
		out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
		out.Payload = resp
		d.net.FreePacket(pkt)
		d.net.Send(p, out)
	case *ConfigReq:
		resp := &ConfigResp{OpID: req.OpID}
		if !req.Privileged {
			resp.Err = ErrNotPrivileged.Error()
		} else if req.SetPrivilege != 0 {
			d.privileged = req.SetPrivilege > 0
		} else if err := d.applyConfig(req.EP, req.Cfg); err != nil {
			resp.Err = err.Error()
		}
		out := d.net.NewPacket()
		out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
		out.Payload = resp
		d.net.FreePacket(pkt)
		d.net.Send(p, out)
	case *probeReq:
		crashed := d.coreStatus != nil && d.coreStatus()
		out := d.net.NewPacket()
		out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
		out.Payload = &probeResp{OpID: req.OpID, Crashed: crashed}
		d.net.FreePacket(pkt)
		d.net.Send(p, out)
	}
}

// serverLoad runs one seeded request stream against every DTU's
// request server: clients on random nodes issue RDMA reads and writes
// to other nodes' scratchpads (some out of range), remote endpoint
// configurations and, with faults on, liveness probes, over a
// contended mesh.
func serverLoad(seed uint64, newDTU func(*sim.Engine, *noc.Network, noc.NodeID, *mem.SPM, int) *DTU) (log []string, events uint64, end sim.Time) {
	rng := sim.NewRand(seed)
	eng := sim.NewEngine()
	cfg := noc.Config{Width: 2 + rng.Intn(3), Height: 1 + rng.Intn(3)}
	net := noc.New(eng, cfg)
	faulty := rng.Intn(3) == 0
	dtus := make([]*DTU, cfg.Width*cfg.Height)
	for i := range dtus {
		dtus[i] = newDTU(eng, net, noc.NodeID(i), mem.NewSPM(16<<10), 8)
		if faulty {
			dtus[i].EnableFaults(&FaultConfig{Timeout: 200})
		}
		// Half of each memory endpoint's region lies past the target's
		// scratchpad, so some accesses fail at the target.
		for ep := 0; ep < 4; ep++ {
			if err := dtus[i].Configure(ep, Endpoint{Type: EpMemory,
				MemTarget: noc.NodeID(rng.Intn(len(dtus))), MemAddr: rng.Intn(12 << 10),
				MemSize: 8 << 10, MemPerms: PermRW}); err != nil {
				panic(err)
			}
		}
	}
	if faulty {
		net.SetFaultHook(func(from, to noc.NodeID, pkt *noc.Packet) noc.LinkFault {
			switch sim.Hash(seed, uint64(from), uint64(to), uint64(eng.Now())) % 40 {
			case 0:
				return noc.LinkDrop
			case 1:
				return noc.LinkCorrupt
			}
			return noc.LinkOK
		})
	}
	for c := 0; c < 1+rng.Intn(6); c++ {
		d := dtus[rng.Intn(len(dtus))]
		ops := make([][4]int, rng.Intn(20))
		for i := range ops {
			ops[i] = [4]int{rng.Intn(5), rng.Intn(4), rng.Intn(6 << 10), 1 + rng.Intn(2<<10)}
		}
		p := eng.Spawn("client", func(p *sim.Process) {
			for i, op := range ops {
				kind, ep, off, n := op[0], op[1], op[2], op[3]
				var err error
				var sum uint64
				switch kind {
				case 0, 1:
					buf := make([]byte, n)
					err = d.ReadMem(p, ep, off, buf)
					h := fnv.New64a()
					h.Write(buf)
					sum = h.Sum64()
				case 2:
					data := make([]byte, n)
					for j := range data {
						data[j] = byte(c*7 + i + j)
					}
					err = d.WriteMem(p, ep, off, data)
				case 3:
					err = d.ConfigureRemote(p, d.EP(ep).MemTarget, 7, Endpoint{Type: EpSend, Target: 0, Credits: n})
				case 4:
					if faulty {
						_, err = d.Probe(p, d.EP(ep).MemTarget)
					}
				}
				log = append(log, fmt.Sprintf("%d: client %d op %d kind %d err=%v sum=%x", eng.Now(), c, i, kind, err, sum))
			}
		})
		if rng.Intn(4) == 0 {
			eng.Schedule(sim.Time(1+rng.Intn(2000)), p.Kill)
		}
	}
	end = eng.Run()
	for _, d := range dtus {
		log = append(log, fmt.Sprintf("%+v", d.Stats))
	}
	return log, eng.ExecutedEvents(), end
}

// TestServerMatchesProcessReference: the Station request server with
// SendThen responses schedules event for event what the spawned server
// process did: same completions, same stats, same executed-event count
// and end time.
func TestServerMatchesProcessReference(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		refLog, refEvents, refEnd := serverLoad(seed, newRefDTU)
		log, events, end := serverLoad(seed, New)
		if !reflect.DeepEqual(log, refLog) || events != refEvents || end != refEnd {
			t.Fatalf("seed %d: station server ran %d events to %d, reference %d to %d\nstation:   %v\nreference: %v",
				seed, events, end, refEvents, refEnd, log, refLog)
		}
	}
}
