package tile

import (
	"fmt"

	"repro/internal/dtu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// memTile fronts the DRAM module on the NoC. It speaks the same RDMA
// protocol as a DTU-fronted scratchpad, so a memory endpoint works
// identically whether it points at DRAM or at another PE's SPM.
type memTile struct {
	eng  *sim.Engine
	net  *noc.Network
	node noc.NodeID
	dram *mem.DRAM
	reqs *sim.Queue[*noc.Packet]
}

func newMemTile(eng *sim.Engine, net *noc.Network, node noc.NodeID, dram *mem.DRAM) *memTile {
	m := &memTile{eng: eng, net: net, node: node, dram: dram, reqs: sim.NewQueue[*noc.Packet](eng)}
	net.Attach(node, m)
	// One worker per DRAM port lets independent accesses overlap when
	// the module has multiple ports; the port resource inside mem.DRAM
	// provides the actual admission control.
	for i := 0; i < dram.Ports().Capacity(); i++ {
		eng.Spawn(fmt.Sprintf("memtile%d-w%d", node, i), m.serve)
	}
	return m
}

// Deliver implements noc.Handler.
func (m *memTile) Deliver(pkt *noc.Packet) {
	if pkt.Corrupt {
		// A corrupted request must not be executed as if valid; the
		// requesting DTU's operation timeout covers the loss.
		return
	}
	switch pkt.Payload.(type) {
	case *dtu.MemReadReq, *dtu.MemWriteReq:
		// The packet outlives Deliver: a serve worker dequeues and
		// answers it later. Take ownership from the network's pool.
		pkt.Retain = true
		m.reqs.Send(pkt)
	default:
		panic(fmt.Sprintf("tile: memory tile got %T", pkt.Payload))
	}
}

func (m *memTile) serve(p *sim.Process) {
	p.SetDaemon()
	for {
		pkt := m.reqs.Recv(p)
		switch req := pkt.Payload.(type) {
		case *dtu.MemReadReq:
			buf := m.net.NewPayload(req.Len)
			resp := &dtu.MemResp{OpID: req.OpID}
			src := req.Src
			m.net.FreePacket(pkt)
			err := m.dram.Access(p, false, req.Addr, buf, func() {
				// Stream the response while the port is held: the port
				// is busy exactly as long as data leaves the module.
				resp.Data = buf
				out := m.net.NewPacket()
				out.Src, out.Dst, out.Size = m.node, src, dtu.HeaderSize+len(buf)
				out.Payload = resp
				m.net.Send(p, out)
			})
			if err != nil {
				// The access failed before streaming: buf never left.
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
			err := m.dram.Access(p, true, req.Addr, req.Data, nil)
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
