package dtu

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Default reliability parameters, used when the fault configuration
// leaves them zero. The timeout comfortably covers a worst-case
// mesh traversal plus remote service time; the retry budget pushes
// the abort probability at realistic loss rates below anything a
// workload will ever observe (at 1% per-link loss, ~1e-14 per
// message).
const (
	DefaultTimeout    sim.Time = 2000
	DefaultMaxRetries          = 6
	// DefaultBackoffFactor bounds the exponential backoff: the per-
	// attempt timeout never exceeds Timeout * DefaultBackoffFactor
	// (32 = five doublings, matching a retry budget of 6 — larger
	// budgets keep retrying at the cap instead of overflowing into
	// multi-epoch sleeps).
	DefaultBackoffFactor sim.Time = 32
)

// FaultConfig switches a DTU into fault-tolerant operation. With it
// enabled, message-class transfers (sends, replies, credit grants)
// carry sequence numbers and are retransmitted until acknowledged,
// and remote operations (RDMA, remote config, probes) get bounded
// response timeouts with retry. Without it — the default — the DTU
// behaves exactly as the lossless model always has: not a single
// extra event is scheduled, so fault-free runs stay bit-identical to
// the pre-fault simulator.
//
// Only internal/fault may enable this (m3vet: faultsite).
type FaultConfig struct {
	// Timeout is the initial ack/response timeout in cycles; it
	// doubles on every retry (bounded exponential backoff).
	Timeout sim.Time
	// MaxRetries bounds the retransmissions/retries of one transfer
	// before it aborts with ErrTimeout.
	MaxRetries int
	// MaxBackoff caps the per-attempt timeout the exponential backoff
	// can reach. Zero picks Timeout * DefaultBackoffFactor. The cap is
	// what keeps a long retry budget from doubling into overflow:
	// sim.Time is unsigned, and an uncapped doubling chain would
	// eventually wrap into a tiny timeout and retransmit-storm.
	MaxBackoff sim.Time
	// PreSend, when set, runs before every fault-gated transfer; the
	// fault layer uses it to inject transfer-engine stalls.
	PreSend func(p *sim.Process)
	// CallDeadline, when nonzero, is the cycle budget software on this
	// PE should apply to request/reply calls into services; libm3 reads
	// it via DTU.CallDeadline to arm bounded waits and session
	// recovery. Zero keeps every call path unbounded (and schedules no
	// deadline events). The fault layer sets it only when a crash is
	// armed (docs/RECOVERY.md).
	CallDeadline sim.Time
}

// EnableFaults installs the reliability configuration. Zero Timeout
// or MaxRetries fall back to the defaults.
func (d *DTU) EnableFaults(cfg *FaultConfig) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxBackoff <= 0 {
		// Overflow-safe default: a Timeout within a factor of the top of
		// the range caps at itself rather than wrapping.
		if cfg.Timeout > ^sim.Time(0)/DefaultBackoffFactor {
			cfg.MaxBackoff = cfg.Timeout
		} else {
			cfg.MaxBackoff = cfg.Timeout * DefaultBackoffFactor
		}
	}
	if cfg.MaxBackoff < cfg.Timeout {
		cfg.MaxBackoff = cfg.Timeout
	}
	d.faults = cfg
}

// nextBackoff doubles a timeout under the configured cap without ever
// wrapping: sim.Time is unsigned, so `t *= 2` on a large t would
// silently produce a shorter timeout than the attempt before it.
func (fc *FaultConfig) nextBackoff(t sim.Time) sim.Time {
	if t >= fc.MaxBackoff/2 {
		return fc.MaxBackoff
	}
	return t * 2
}

// CallDeadline reports the call cycle budget of the armed fault
// configuration — or, when the fault layer arms none, of the overload
// configuration (see EnableOverload) — zero when neither arms one.
// Reading it is safe from any layer: it only tells software whether
// the run wants bounded calls, it arms nothing.
func (d *DTU) CallDeadline() sim.Time {
	if d.faults != nil && d.faults.CallDeadline > 0 {
		return d.faults.CallDeadline
	}
	if d.overload != nil {
		return d.overload.CallDeadline
	}
	return 0
}

// Faulty reports whether the fault layer is armed on this DTU.
// Software uses it to pick its failure semantics: with faults armed a
// timeout may mean a dead service incarnation (worth a session
// recovery); with only overload armed it means shed or expired work,
// which a bounded retry handles without touching the session.
func (d *DTU) Faulty() bool { return d.faults != nil }

// SetCoreStatus installs the callback a probe response reads to learn
// whether the attached core is alive. The DTU is a separate hardware
// block: it keeps answering probes after its core crashed — that is
// precisely how the kernel tells a dead PE from a slow one. Wired by
// the platform at build time; only internal/fault triggers probing.
func (d *DTU) SetCoreStatus(fn func() bool) { d.coreStatus = fn }

// ResetEndpoints clears every endpoint register, dropping any
// buffered messages. The tile layer invokes this when the kernel
// resets a PE (VPE revocation, §4.5.5, and PE hand-out), so a reused
// PE leaks no stale communication rights to its next occupant.
func (d *DTU) ResetEndpoints() {
	for i := range d.eps {
		d.eps[i] = epState{}
	}
}

// stall applies the configured pre-send hook.
func (fc *FaultConfig) stall(p *sim.Process) {
	if fc.PreSend != nil {
		fc.PreSend(p)
	}
}

// pendingSend tracks one reliable outbound transfer awaiting its ack.
type pendingSend struct {
	done   *sim.Signal
	acked  bool
	nacked bool
}

// seqKey identifies a reliable transfer at the receiver for duplicate
// suppression: sequence numbers are per-sender.
type seqKey struct {
	src noc.NodeID
	seq uint64
}

// dedupState is the per-sender duplicate-suppression window. Sequence
// numbers from one sender mint monotonically from 1, so instead of
// remembering every (sender, seq) pair forever — memory that only
// grows over a long run — the receiver keeps a floor at or below which
// everything is a known duplicate, plus the sparse set of out-of-order
// arrivals above it. The floor advances as the gaps fill, so `ahead`
// stays bounded by the sender's in-flight window however many
// transfers the run carries.
type dedupState struct {
	floor uint64
	ahead map[uint64]bool
}

// markSeen records (src, seq) in the dedup window and reports whether
// the transfer was already delivered.
func (d *DTU) markSeen(src noc.NodeID, seq uint64) bool {
	s := d.seen[src]
	if s == nil {
		s = &dedupState{ahead: make(map[uint64]bool)}
		d.seen[src] = s
	}
	if seq <= s.floor || s.ahead[seq] {
		return true
	}
	s.ahead[seq] = true
	for s.ahead[s.floor+1] {
		delete(s.ahead, s.floor+1)
		s.floor++
	}
	return false
}

// transmit pushes a message-class packet (message, reply, credit
// grant). Without faults it is a plain NoC send. With faults the
// packet gets a sequence number and is retransmitted — same sequence
// number, so the receiver can deduplicate — until the receiving DTU
// acknowledges it, the receiver NACKs a corrupted copy (immediate
// retransmit), or the retry budget runs out (ErrTimeout). These are
// hardware-level acks between DTUs, distinct from the software-level
// message ack that frees a ringbuffer slot.
func (d *DTU) transmit(p *sim.Process, pkt *noc.Packet) error {
	if d.faults == nil {
		d.net.Send(p, pkt)
		return nil
	}
	d.faults.stall(p)
	d.nextSeq++
	pkt.Seq = d.nextSeq
	ps := &pendingSend{done: sim.NewSignal(d.eng)}
	d.sends[pkt.Seq] = ps
	timeout := d.faults.Timeout
	for attempt := 0; ; attempt++ {
		pkt.Corrupt = false // a corrupting hop taints the packet; retransmit clean
		d.net.Send(p, pkt)
		if ps.acked {
			break
		}
		expired := false
		d.eng.Schedule(timeout, func() {
			// The timer belongs to this attempt only: if the transfer
			// was acked (or aborted and forgotten) in the meantime, it
			// must not wake anyone.
			if s, ok := d.sends[pkt.Seq]; ok && s == ps && !ps.acked {
				expired = true
				ps.done.Broadcast()
			}
		})
		for !ps.acked && !ps.nacked && !expired {
			d.idleWait(p, ps.done)
		}
		if ps.acked {
			break
		}
		if attempt >= d.faults.MaxRetries {
			delete(d.sends, pkt.Seq)
			d.Stats.SendsAborted++
			if tr := d.obs; tr.On() {
				tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
					Kind: obs.EvXmitAbort, Span: obs.SpanID(pkt.Span),
					Arg0: pkt.Seq, Arg1: uint64(pkt.Dst), Arg2: uint64(attempt + 1)})
			}
			// Build the error before freeing: it reads the packet.
			err := fmt.Errorf("%w: transfer to node %d unacknowledged after %d attempts",
				ErrTimeout, pkt.Dst, attempt+1)
			d.net.FreePacket(pkt)
			return err
		}
		if !ps.nacked {
			// Silence: back off (capped); a NACK retransmits immediately.
			timeout = d.faults.nextBackoff(timeout)
		}
		ps.nacked = false
		d.Stats.Retransmits++
		if tr := d.obs; tr.On() {
			d.mRetransmits.Inc()
			tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvRetransmit, Span: obs.SpanID(pkt.Span),
				Arg0: pkt.Seq, Arg1: uint64(pkt.Dst), Arg2: uint64(attempt + 1)})
		}
	}
	delete(d.sends, pkt.Seq)
	// Sequence-numbered packets are sender-owned (the network never
	// frees them — retransmits reuse the same packet); the transfer is
	// acked, so this side is done with it.
	d.net.FreePacket(pkt)
	return nil
}

// doOp runs one remote request/response operation (RDMA access,
// remote config, probe): send issues the request under the given op
// id; doOp waits for the response. Without faults the wait is
// unbounded, as before. With faults the wait times out and the
// operation is retried under a fresh op id with doubled timeout —
// these operations are idempotent, and a late response to an
// abandoned attempt is ignored because its op id is no longer
// pending.
func (d *DTU) doOp(p *sim.Process, send func(op uint64)) (opResult, error) {
	if d.faults == nil {
		po := d.newOp()
		send(po.id)
		return d.waitOp(p, po, 0), nil
	}
	d.faults.stall(p)
	timeout := d.faults.Timeout
	for attempt := 0; ; attempt++ {
		po := d.newOp()
		op := po.id
		send(op)
		res := d.waitOp(p, po, timeout)
		if res != (opResult{}) {
			return res, nil
		}
		d.Stats.OpTimeouts++
		if tr := d.obs; tr.On() {
			tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvOpTimeout, Arg0: op, Arg1: uint64(attempt + 1)})
		}
		if attempt >= d.faults.MaxRetries {
			d.Stats.SendsAborted++
			return opResult{}, fmt.Errorf("%w: remote operation unanswered after %d attempts",
				ErrTimeout, attempt+1)
		}
		timeout = d.faults.nextBackoff(timeout)
	}
}

// Probe asks the DTU at target whether its attached core is alive: the
// kernel's death-detection channel. The target's DTU answers
// autonomously — a crashed core cannot, and need not, be involved —
// and a fully unreachable PE surfaces as ErrTimeout after the retry
// budget. Privileged DTUs only; requires faults enabled (the timeout
// is what makes "no answer" an answer).
func (d *DTU) Probe(p *sim.Process, target noc.NodeID) (bool, error) {
	if !d.privileged {
		return false, ErrNotPrivileged
	}
	po, err := d.doOp(p, func(op uint64) {
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = d.node, target, ctrlPacketSize
		pkt.Payload = &probeReq{OpID: op, Src: d.node}
		d.net.Send(p, pkt)
	})
	if err != nil {
		return false, err
	}
	return po.probe.Crashed, nil
}

// sendCtrl emits an autonomous control packet (ack, nack) from engine
// context, where no sending process exists.
func (d *DTU) sendCtrl(dst noc.NodeID, payload any) {
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size = d.node, dst, ctrlPacketSize
	pkt.Payload = payload
	d.net.SendAsync(pkt)
}
