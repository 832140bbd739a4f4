package dtu

import "repro/internal/noc"

// Wire payload types. Besides DTU-to-DTU traffic, the memory request
// and response types are also understood by the DRAM tile (package
// tile), which speaks the same RDMA protocol as a DTU-fronted SPM.

// msgPacket carries a message to a receive endpoint.
type msgPacket struct {
	TargetEP int
	Msg      *Message
}

// replyPacket carries a reply back to the original sender's receive
// endpoint and restores one credit at its send endpoint.
type replyPacket struct {
	TargetEP int
	CreditEP int
	Msg      *Message
}

// creditPacket restores credits at a send endpoint without carrying a
// message (used when a receiver acks without replying).
type creditPacket struct {
	SendEP  int
	Credits int
}

// MemReadReq asks the target to return Len bytes starting at Addr.
// The target answers with Resp.
type MemReadReq struct {
	OpID uint64
	Src  noc.NodeID
	Addr int
	Len  int
	Resp *MemResp
}

// MemWriteReq asks the target to store Data at Addr. Data is a pooled
// payload (noc.Network.NewPayload) that the target frees once stored.
// The target answers with Resp.
type MemWriteReq struct {
	OpID uint64
	Src  noc.NodeID
	Addr int
	Data []byte
	Resp *MemResp
}

// MemResp answers a MemReadReq (with Data) or a MemWriteReq (empty
// Data). A non-empty Err reports an out-of-bounds access. A read's Data
// is a pooled payload that ReadMem frees after copying it out. The
// requester built it along with the request, OpID set; the target
// fills in only Data or Err and sends it back.
type MemResp struct {
	OpID uint64
	Data []byte
	Err  string
	op   *memOp
}

// memOp is the pooled record of one RDMA attempt: its request and the
// response the target answers with. The requesting DTU takes it from
// its freelist (newMemOp), the request carries it to the target, and
// the response carries it home, where the requester recycles it once
// it read the answer (freeMemOp). So one operation allocates nothing, and the record is
// never in two places: a retry takes a record of its own, and one lost
// with its packet or answering an abandoned attempt is left to the GC,
// as its payload is (noc.Network.NewPayload).
type memOp struct {
	read  MemReadReq
	write MemWriteReq
	resp  MemResp
	next  *memOp
}

// ConfigReq remotely writes an endpoint's registers. Only packets from
// privileged DTUs are honoured; this is how a kernel PE exercises
// NoC-level control over application PEs.
type ConfigReq struct {
	OpID       uint64
	Src        noc.NodeID
	Privileged bool

	EP  int
	Cfg Endpoint

	// SetPrivilege, when non-zero, up/downgrades the target DTU's
	// privilege instead of writing an endpoint: +1 upgrades, -1
	// downgrades (the boot-time downgrade of application PEs).
	SetPrivilege int
}

// ConfigResp acknowledges a ConfigReq.
type ConfigResp struct {
	OpID uint64
	Err  string
}

// ackPacket is the hardware acknowledgement of a sequence-numbered
// transfer; nackPacket asks for an immediate retransmission after a
// corrupted copy arrived. Both are fire-and-forget (their own Seq is
// zero): a lost or corrupted ack/nack is covered by the sender's
// timeout-driven retransmit and the receiver's deduplication.
type ackPacket struct{ Seq uint64 }

type nackPacket struct{ Seq uint64 }

// probeReq asks a DTU whether its attached core is alive; probeResp is
// its autonomous answer. This is the kernel's death-detection channel
// (the DTU "error report" of a PE whose core can no longer speak for
// itself).
type probeReq struct {
	OpID uint64
	Src  noc.NodeID
}

type probeResp struct {
	OpID    uint64
	Crashed bool
}

// wire size helpers: requests and acks are small control packets.
const ctrlPacketSize = 16

func msgWireSize(payload int) int { return HeaderSize + payload }
