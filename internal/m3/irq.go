package m3

import (
	"errors"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/sim"
)

// Device interrupts as messages (§4.4.2): the paper proposes sending
// device interrupts as ordinary DTU messages, so software can wait for
// them like for any other message, interpose them, or route them to
// any PE independent of the core. The prototype platform lacked
// devices; this file provides the proposed mechanism with a timer as
// the canonical device.
//
// A timer device is a program placed on its own PE (devices sit behind
// DTUs like every other unit). It receives a send gate to the handler's
// receive gate and emits one message per tick. Because the interrupt
// is just a message through a capability, interposition is a matter of
// pointing the device at a proxy's receive gate instead.

// TimerTick is the payload of one timer interrupt message.
type TimerTick struct {
	// Seq counts ticks from 0.
	Seq uint64
	// At is the device-local cycle time of the tick.
	At sim.Time
}

// encodeTick marshals a tick.
func encodeTick(t TimerTick) []byte {
	var o kif.OStream
	o.U64(t.Seq).U64(uint64(t.At))
	return o.Bytes()
}

// DecodeTick unmarshals a timer interrupt message payload.
func DecodeTick(data []byte) (TimerTick, error) {
	is := kif.NewIStream(data)
	t := TimerTick{Seq: is.U64(), At: sim.Time(is.U64())}
	return t, is.Err()
}

// TimerDevice returns the device program: it fires count interrupt
// messages (count 0 = forever), interval cycles apart, through the
// send gate delegated at sgateSel. Send failures from exhausted
// credits model an interrupt storm the handler cannot keep up with:
// the device drops the tick and continues, like real interrupt
// coalescing.
func TimerDevice(sgateSel kif.CapSel, interval sim.Time, count uint64) func(*Env) {
	return func(env *Env) {
		sg := env.SendGateAt(sgateSel)
		for seq := uint64(0); count == 0 || seq < count; seq++ {
			env.P().Sleep(interval)
			tick := TimerTick{Seq: seq, At: env.Ctx.Now()}
			// Non-blocking: an interrupt the handler has no buffer
			// space for is coalesced away, never queued unboundedly.
			// The handler's acknowledge (reply) restores the credit.
			if err := sg.TrySend(encodeTick(tick)); err != nil {
				continue
			}
		}
	}
}

// InterruptGate is the handler side: a receive gate dedicated to
// interrupt messages.
type InterruptGate struct {
	RG *RecvGate
}

// NewInterruptGate creates a receive gate sized for interrupt
// payloads and returns it with a send gate selector for the device
// (credits bound the number of unhandled interrupts; further ticks are
// dropped by the device, not queued unboundedly).
func NewInterruptGate(env *Env, pending int) (*InterruptGate, kif.CapSel, error) {
	rg, err := env.NewRecvGate(32, pending)
	if err != nil {
		return nil, kif.InvalidSel, err
	}
	sg, err := rg.NewSendGate(0x1e9, pending)
	if err != nil {
		return nil, kif.InvalidSel, err
	}
	return &InterruptGate{RG: rg}, sg, nil
}

// Wait blocks until the next interrupt and returns its tick. It is
// the message-based analogue of waiting for an interrupt, and it
// composes with waiting for any other message. Returning acknowledges
// the interrupt: the reply restores the device's send credit.
func (ig *InterruptGate) Wait() (TimerTick, error) {
	// Unlike RecvGate.Recv, this wait ignores the call budget: the next
	// interrupt may be arbitrarily far away.
	msg, _ := ig.RG.env.DTU().WaitMsg(ig.RG.env.P(), ig.RG.ep)
	tick, err := DecodeTick(msg.Data)
	ig.ack(msg)
	return tick, err
}

// TryWait polls for a pending interrupt.
func (ig *InterruptGate) TryWait() (TimerTick, bool) {
	msg := ig.RG.TryRecv()
	if msg == nil {
		return TimerTick{}, false
	}
	tick, err := DecodeTick(msg.Data)
	ig.ack(msg)
	if err != nil {
		return TimerTick{}, false
	}
	return tick, true
}

// ack signals end-of-interrupt: a reply when the device asked for one
// (restoring its credit), a plain buffer release otherwise.
func (ig *InterruptGate) ack(msg *dtu.Message) {
	if msg.CanReply() {
		// A reply lost in transit (ErrTimeout) was acked all the same,
		// and msg is already recycled.
		if err := ig.RG.Reply(msg, nil); err == nil || errors.Is(err, dtu.ErrTimeout) {
			return
		}
	}
	ig.RG.Ack(msg)
}

// InterruptProxy forwards interrupts from its own gate to another
// handler — the paper's interposition: because interrupts are
// messages over capabilities, a monitor can be slotted in without the
// device or the final handler changing.
func InterruptProxy(env *Env, in *InterruptGate, outSGate kif.CapSel, count uint64, observe func(TimerTick)) error {
	out := env.SendGateAt(outSGate)
	for seq := uint64(0); count == 0 || seq < count; seq++ {
		tick, err := in.Wait()
		if err != nil {
			return err
		}
		if observe != nil {
			observe(tick)
		}
		if err := out.Send(encodeTick(tick)); err != nil {
			return err
		}
	}
	return nil
}
