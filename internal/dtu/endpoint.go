// Package dtu implements the data transfer unit, the paper's common
// hardware component attached to every processing element.
//
// A DTU holds a small set of endpoints. Each endpoint can be configured
// as a send endpoint, a receive endpoint, or a memory endpoint; the
// configuration registers are writable only by privileged (kernel) PEs —
// locally or remotely via NoC config packets — while the data-path
// operations (send, reply, fetch, read, write) are available to the
// application on the PE. Controlling the endpoint configuration of a
// DTU therefore controls all communication of the attached core: this
// is the paper's NoC-level isolation.
package dtu

import (
	"repro/internal/noc"
	"repro/internal/sim"
)

// DefaultNumEndpoints is the endpoint count of the prototype platform.
const DefaultNumEndpoints = 8

// HeaderSize is the wire size in bytes of the message header the DTU
// prepends to every message: label, length, and reply information.
const HeaderSize = 16

// UnlimitedCredits marks a send endpoint that is never throttled. The
// kernel uses it for its own channels.
const UnlimitedCredits = -1

// EpType is the configured role of an endpoint.
type EpType uint8

// Endpoint roles.
const (
	EpInvalid EpType = iota
	EpSend
	EpReceive
	EpMemory
)

func (t EpType) String() string {
	switch t {
	case EpInvalid:
		return "invalid"
	case EpSend:
		return "send"
	case EpReceive:
		return "receive"
	case EpMemory:
		return "memory"
	}
	return "unknown"
}

// Perm is a memory-endpoint permission bitmask.
type Perm uint8

// Memory permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

// Endpoint is the register file of one endpoint. Which fields are
// meaningful depends on Type; the kernel writes the whole set
// atomically when it activates a gate.
type Endpoint struct {
	Type EpType

	// Send endpoint registers (the paper's target, label, credits).
	Target   noc.NodeID // PE holding the receive endpoint
	TargetEP int        // receive endpoint index at Target
	Label    uint64     // receiver-chosen, unforgeable sender identity
	Credits  int        // remaining messages; UnlimitedCredits disables
	MsgSize  int        // max payload bytes per message

	// Receive endpoint registers (the paper's buffer register).
	BufAddr   int // ringbuffer address in the local SPM
	SlotSize  int // bytes per slot, including the header
	SlotCount int // number of slots

	// Memory endpoint registers (the paper's target as memory region).
	MemTarget noc.NodeID // PE or memory tile owning the region
	MemAddr   int        // region start at the target
	MemSize   int        // region length in bytes
	MemPerms  Perm
}

// BufSize returns the SPM bytes a receive endpoint's ringbuffer spans.
func (e *Endpoint) BufSize() int { return e.SlotSize * e.SlotCount }

// epState is the run-time state of an endpoint beyond its registers.
type epState struct {
	Endpoint

	// Receive state: arrived but not yet fetched messages, and the
	// number of slots holding arrived or fetched-but-unacked messages.
	arrived  sim.FIFO[*Message]
	occupied int
	nextSlot int
}

// Message is a received message as the software sees it after fetching
// it from the ringbuffer. It belongs to its ringbuffer slot: DTU.Ack
// (and DTU.Reply, which acks) recycles it, and software must not keep
// a pointer to it or to its Data past that point.
type Message struct {
	// Label identifies the sender; it was chosen by the receiver when
	// the channel was created and cannot be forged by the sender.
	Label uint64
	// Data is the message payload, valid until the message is acked.
	Data []byte

	// Reply routing, taken from the header. The fields are unexported
	// on purpose: software that fetches a message may Reply to it, but
	// must never see the raw node id or endpoint index of the sender —
	// the message is an opaque reply capability (m3vet's capflow rule
	// checks exactly this). replyEP < 0 means the sender did not permit
	// a reply.
	replyNode  noc.NodeID
	replyEP    int
	replyLabel uint64
	// creditEP is the sender's send endpoint whose credit is restored
	// when the reply arrives.
	creditEP int

	// Span is the causal trace id riding in the message header's label
	// space (zero: none). Replies inherit it, so one request's full
	// path reconstructs from the event stream.
	Span uint64

	// Deadline is the propagated cycle budget riding in the header of
	// an overload-controlled request (zero: none). Receivers compare
	// the sim clock against sentAt+Deadline and drop expired work
	// before it enters a ringbuffer (docs/OVERLOAD.md).
	Deadline sim.Time
	// flags marks overload fast-fail replies (msgFlagOverload,
	// msgFlagExpired); see Overloaded/Expired.
	flags uint8

	slot   int
	acked  bool
	sentAt sim.Time

	// buf is the message's own payload buffer, reused across the
	// message's lives in the pool; Data is buf[:n:n].
	buf []byte
	// req and rep are the wire payloads that carry the message as a
	// request or as a reply, so a send allocates no packet payload.
	req msgPacket
	rep replyPacket

	// next links the DTU's message freelist (see DTU.newMessage).
	next *Message
}

// setData copies data into the message's own buffer and exposes it as
// Data, capped at its length so an append by software cannot write
// into the rest of the buffer.
func (m *Message) setData(data []byte) {
	m.buf = append(m.buf[:0], data...)
	m.Data = m.buf[:len(data):len(data)]
}

// CanReply reports whether the sender permitted a direct reply.
func (m *Message) CanReply() bool { return m.replyEP >= 0 }

// Stats counts DTU activity for the evaluation harness.
type Stats struct {
	MsgsSent       uint64
	MsgsReceived   uint64
	MsgsDropped    uint64
	Replies        uint64
	SendsDenied    uint64 // send attempts denied for lack of credits
	MemReads       uint64
	MemWrites      uint64
	BytesRead      uint64
	BytesWritten   uint64
	ConfigsApplied uint64

	// Reliability counters, nonzero only with fault injection enabled:
	// retransmitted transfers, transfers/ops aborted after the retry
	// budget, timed-out remote operations (each timeout retries until
	// the budget runs out), duplicate deliveries suppressed, and
	// corrupted packets discarded on arrival.
	Retransmits  uint64
	SendsAborted uint64
	OpTimeouts   uint64
	DupsDropped  uint64
	Poisoned     uint64

	// Overload-control counters, nonzero only with EnableOverload:
	// requests dropped because their propagated deadline expired in
	// flight, and requests refused by the admission watermark.
	DeadlineDrops   uint64
	OverloadRefused uint64

	// IdleCycles accumulates the time the attached core spent waiting
	// on the DTU — for messages, credits, or transfer completions. The
	// paper trades this idle time for heterogeneity support (§3.4);
	// see the utilization experiment.
	IdleCycles uint64
}

// opResult is the response a remote operation (RDMA, remote config,
// or probe) received; exactly one field is set once it arrived.
type opResult struct {
	resp  *MemResp
	cfg   *ConfigResp
	probe *probeResp
}

// pendingOp tracks an outstanding remote operation awaiting its
// response packet. Records are pooled per DTU (see DTU.newOp).
type pendingOp struct {
	// id is the operation's id while it is registered, 0 once done.
	id uint64
	// expired is set when the operation's timeout ran out unanswered.
	expired bool
	done    *sim.Signal
	opResult
	next *pendingOp
}

// answered reports whether the response came in.
func (po *pendingOp) answered() bool {
	return po.resp != nil || po.cfg != nil || po.probe != nil
}
