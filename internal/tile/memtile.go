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
//
// It is hardware: one Station worker per DRAM port serves the request
// FIFO as event callbacks, so independent accesses overlap when the
// module has several ports. The port resource inside mem.DRAM provides
// the actual admission control.
type memTile struct {
	net     *noc.Network
	node    noc.NodeID
	dram    *mem.DRAM
	reqs    *sim.Station[*noc.Packet]
	workers []memWorker
}

// memWorker holds one port worker's request in progress and its
// continuations, built once.
type memWorker struct {
	m    *memTile
	id   int
	src  noc.NodeID
	resp *dtu.MemResp
	// buf is the payload of the access in progress: the read's
	// response data or the write's data to store.
	buf []byte
	// release frees the DRAM port a read holds while its response
	// streams out.
	release func()
	// streamRead and storeWrite run with the port held; streamed runs
	// once a read's response was delivered, answered once any other
	// response was.
	streamRead, storeWrite func(release func())
	streamed, answered     func()
}

func newMemTile(eng *sim.Engine, net *noc.Network, node noc.NodeID, dram *mem.DRAM) *memTile {
	m := &memTile{net: net, node: node, dram: dram}
	net.Attach(node, m)
	m.workers = make([]memWorker, dram.Ports().Capacity())
	for i := range m.workers {
		w := &m.workers[i]
		w.m, w.id = m, i
		w.streamRead, w.storeWrite = w.readHeld, w.writeHeld
		w.streamed, w.answered = w.readDone, w.done
	}
	m.reqs = sim.NewStation(eng, len(m.workers), m.serve)
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
		// The packet outlives Deliver: a port worker answers it later.
		// Take ownership from the network's pool.
		pkt.Retain = true
		m.reqs.Put(pkt)
	default:
		panic(fmt.Sprintf("tile: memory tile got %T", pkt.Payload))
	}
}

// serve starts worker i on one request.
func (m *memTile) serve(i int, pkt *noc.Packet) {
	w := &m.workers[i]
	switch req := pkt.Payload.(type) {
	case *dtu.MemReadReq:
		buf := m.net.NewPayload(req.Len)
		w.resp, w.src, w.buf = req.Resp, req.Src, buf
		m.net.FreePacket(pkt)
		if err := m.dram.AccessThen(false, req.Addr, buf, w.streamRead); err != nil {
			// The access failed before streaming: buf never left.
			w.buf = nil
			m.net.FreePayload(buf)
			w.resp.Err = err.Error()
			w.respond(16, w.answered)
		}
	case *dtu.MemWriteReq:
		w.resp, w.src, w.buf = req.Resp, req.Src, req.Data
		m.net.FreePacket(pkt)
		if err := m.dram.AccessThen(true, req.Addr, req.Data, w.storeWrite); err != nil {
			w.buf = nil
			m.net.FreePayload(req.Data)
			w.resp.Err = err.Error()
			w.respond(16, w.answered)
		}
	}
}

// readHeld streams the read response while the port is held: the port
// is busy exactly as long as data leaves the module.
func (w *memWorker) readHeld(release func()) {
	w.release = release
	w.resp.Data, w.buf = w.buf, nil
	w.respond(dtu.HeaderSize+len(w.resp.Data), w.streamed)
}

func (w *memWorker) readDone() {
	release := w.release
	w.release = nil
	release()
	w.done()
}

// writeHeld frees the port as soon as the data is stored, then answers.
func (w *memWorker) writeHeld(release func()) {
	release()
	w.m.net.FreePayload(w.buf)
	w.buf = nil
	w.respond(16, w.answered)
}

// respond sends the worker's response of the given wire size and runs
// then once it was delivered.
func (w *memWorker) respond(size int, then func()) {
	out := w.m.net.NewPacket()
	out.Src, out.Dst, out.Size = w.m.node, w.src, size
	out.Payload = w.resp
	w.resp = nil
	w.m.net.SendThen(nil, out, then)
}

// done returns the worker to the station.
func (w *memWorker) done() { w.m.reqs.Done(w.id) }
