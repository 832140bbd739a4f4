package dtu

import "repro/internal/obs"

// SetRxWatermark arms admission control on this DTU's receive
// endpoints (docs/OVERLOAD.md): a request arriving while n or more
// slots of its ringbuffer are occupied is refused, not queued, with an
// immediate fast-fail reply that restores the sender's credit, so the
// sender learns in one round trip that the service is full. Replies
// always land: the slot for them was budgeted by the requester's
// credit. This turns the paper's credit budget from a correctness
// bound into an admission decision.
//
// Zero, the default, disarms it: the DTU then schedules not a single
// extra event and registers no metric. The watermark is harness-level
// policy, armed by bench options rather than through internal/fault.
func (d *DTU) SetRxWatermark(n int) { d.rxWatermark = n }

// Overloaded reports whether this message is a fast-fail reply from an
// admission refusal (the caller sees kif.ErrOverload).
func (m *Message) Overloaded() bool { return m.refused }

// MAdmitRefusals counts requests refused by this DTU's admission
// watermark. The counter is registered lazily on its first increment,
// so an armed-but-idle or disarmed run keeps its metrics snapshot
// bit-identical to an unarmed one.
const MAdmitRefusals = "dtu_admit_refusals_total"

func (d *DTU) admitRefusalCounter() *obs.Counter {
	if d.mAdmitRefusals == nil && d.obs.On() {
		d.mAdmitRefusals = d.obs.Metrics().Counter(MAdmitRefusals, int(d.node))
	}
	return d.mAdmitRefusals
}

// admit is the admission preamble of receive(), run only for request
// messages on a DTU with a watermark armed, before the message touches
// a ringbuffer. It returns false after refusing (and recycling) the
// message.
func (d *DTU) admit(ep int, r *epState, msg *Message) bool {
	if r.occupied < d.rxWatermark {
		return true
	}
	d.Stats.OverloadRefused++
	if tr := d.obs; tr.On() {
		d.admitRefusalCounter().Inc()
		tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvAdmitRefuse, Span: obs.SpanID(msg.Span),
			Arg0: uint64(ep), Arg1: uint64(msg.replyNode), Arg2: uint64(r.occupied)})
	}
	d.fastFail(msg)
	return false
}

// fastFail answers a refused request with an immediate flagged reply —
// the overload NACK — restoring the sender's credit so its send gate
// does not leak, then recycles the request (it never entered a
// ringbuffer; the reliable layer acked and deduplicated its packet
// before receive, so no other reference exists). The reply is a
// fire-and-forget control-size packet from engine context, like
// ack/nack: if it is lost under fault injection, the sender's own
// call budget (DTU.CallDeadline) covers the silence.
func (d *DTU) fastFail(msg *Message) {
	if msg.replyEP < 0 {
		// No reply channel: the refusal can only be silent.
		d.freeMessage(msg)
		return
	}
	reply := d.newMessage()
	reply.Label = msg.replyLabel
	reply.refused = true
	reply.replyNode = d.node
	reply.replyEP = -1
	reply.Span = msg.Span
	reply.sentAt = d.eng.Now()
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, msg.replyNode, ctrlPacketSize, reply.Span
	reply.rep = replyPacket{TargetEP: msg.replyEP, CreditEP: msg.creditEP, Msg: reply}
	pkt.Payload = &reply.rep
	d.freeMessage(msg)
	d.net.SendAsync(pkt)
}
