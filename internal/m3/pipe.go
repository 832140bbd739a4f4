package m3

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dtu"
	"repro/internal/kif"
)

// Pipes (§4.5.7): a unidirectional data channel between exactly one
// writer and one reader. The data travels through a software-managed
// ringbuffer in DRAM — large enough to maximize reader/writer
// parallelism — while small messages synchronize the two sides: after
// writing, the writer notifies the reader with a message; the reader
// replies after consuming, which both returns buffer space and
// restores the writer's send credits. After setup, the kernel is not
// involved: pipe communication happens directly between the two PEs.

// pipeMsgSlots bounds the number of in-flight notifications.
const pipeMsgSlots = 4

// DefaultPipeSize is the DRAM ringbuffer size.
const DefaultPipeSize = 64 << 10

// PipeReader is the consuming end. The reader side creates the pipe:
// it owns the notification receive gate (receive gates cannot be
// delegated) and the ringbuffer memory, and hands the send gate plus a
// write-only memory gate to the writer via capability exchange.
type PipeReader struct {
	env  *Env
	rg   *RecvGate
	mem  *MemGate
	size int

	sgateSel kif.CapSel // send gate for the writer
	wmemSel  kif.CapSel // write-only ringbuffer gate for the writer

	rpos    int
	pending []byte // fetched from DRAM but not yet consumed
	eof     bool
}

// NewPipe creates the reader side of a pipe with the given ringbuffer
// size (DefaultPipeSize if 0).
func NewPipe(e *Env, size int) (*PipeReader, error) {
	if size <= 0 {
		size = DefaultPipeSize
	}
	rg, err := e.NewRecvGate(64, pipeMsgSlots)
	if err != nil {
		return nil, fmt.Errorf("m3: pipe rgate: %w", err)
	}
	mem, err := e.ReqMem(size, dtu.PermRW)
	if err != nil {
		return nil, fmt.Errorf("m3: pipe ringbuffer: %w", err)
	}
	sg, err := rg.NewSendGate(0x9e1b, pipeMsgSlots)
	if err != nil {
		return nil, fmt.Errorf("m3: pipe sgate: %w", err)
	}
	wmem, err := mem.Derive(0, size, dtu.PermWrite)
	if err != nil {
		return nil, fmt.Errorf("m3: pipe write gate: %w", err)
	}
	return &PipeReader{
		env: e, rg: rg, mem: mem, size: size,
		sgateSel: sg, wmemSel: wmem.Sel(),
	}, nil
}

// WriterSels returns the two capability selectors the writer needs
// (send gate, ringbuffer write gate), for delegation to the writer's
// VPE.
func (pr *PipeReader) WriterSels() (sgate, wmem kif.CapSel) {
	return pr.sgateSel, pr.wmemSel
}

// Size returns the ringbuffer size.
func (pr *PipeReader) Size() int { return pr.size }

// Read consumes up to len(buf) bytes. It returns io.EOF after the
// writer closed the pipe and all data was drained.
func (pr *PipeReader) Read(buf []byte) (int, error) {
	e := pr.env
	e.Ctx.Compute(CostPipeOp)
	for len(pr.pending) == 0 {
		if pr.eof {
			return 0, io.EOF
		}
		// With fault injection's call deadline armed, Recv bounds the
		// wait: a writer that died mid-pipe surfaces as a clean timeout
		// instead of a blocked reader (docs/RECOVERY.md).
		msg := pr.rg.Recv()
		if msg == nil {
			return 0, fmt.Errorf("m3: pipe read: %w", kif.ErrTimeout)
		}
		is := kif.NewIStream(msg.Data)
		pos, n := int(is.U64()), int(is.U64())
		if is.Err() != nil {
			pr.rg.Ack(msg)
			return 0, is.Err()
		}
		if n == 0 {
			pr.eof = true
			if err := pr.rg.Reply(msg, ackPayload(0)); err != nil {
				return 0, err
			}
			continue
		}
		data := make([]byte, n)
		if err := pr.readRing(data, pos); err != nil {
			pr.rg.Ack(msg)
			return 0, err
		}
		pr.pending = data
		// The reply returns the consumed space to the writer.
		if err := pr.rg.Reply(msg, ackPayload(n)); err != nil {
			return 0, err
		}
	}
	n := copy(buf, pr.pending)
	pr.pending = pr.pending[n:]
	return n, nil
}

func (pr *PipeReader) readRing(buf []byte, pos int) error {
	first := pr.size - pos
	if first > len(buf) {
		first = len(buf)
	}
	if err := pr.mem.Read(buf[:first], pos); err != nil {
		return err
	}
	if first < len(buf) {
		return pr.mem.Read(buf[first:], 0)
	}
	return nil
}

func ackPayload(n int) []byte {
	var o kif.OStream
	o.U64(uint64(n))
	return o.Bytes()
}

// PipeWriter is the producing end, opened from delegated/obtained
// capability selectors.
type PipeWriter struct {
	env  *Env
	sg   *SendGate
	mem  *MemGate
	size int

	// Async lets notifications overlap with further writes instead of
	// waiting for each acknowledgement.
	Async bool

	wpos   int
	free   int
	inMsgs []uint64 // labels of outstanding notifications
	closed bool
}

// OpenPipeWriter wraps the writer-side capabilities of a pipe whose
// ringbuffer has the given size.
func OpenPipeWriter(e *Env, sgate, wmem kif.CapSel, size int) *PipeWriter {
	if size <= 0 {
		size = DefaultPipeSize
	}
	return &PipeWriter{
		env: e, sg: e.SendGateAt(sgate), mem: e.MemGateAt(wmem, size),
		size: size, free: size,
	}
}

// Write pushes all of buf into the pipe, blocking on ringbuffer space
// as needed. Like most libm3 abstractions it combines the send with
// waiting for the reply, making the asynchronous DTU messaging
// synchronous again (§4.5.6); set Async for overlapped notification.
func (pw *PipeWriter) Write(buf []byte) (int, error) {
	if pw.closed {
		return 0, errors.New("m3: write on closed pipe")
	}
	e := pw.env
	total := 0
	for len(buf) > 0 {
		e.Ctx.Compute(CostPipeOp)
		// Reclaim space from any acknowledgements that arrived.
		pw.collect(false)
		for pw.free == 0 {
			if err := pw.collect(true); err != nil {
				return total, err
			}
		}
		n := len(buf)
		if n > pw.free {
			n = pw.free
		}
		if err := pw.writeRing(buf[:n], pw.wpos); err != nil {
			return total, err
		}
		var o kif.OStream
		o.U64(uint64(pw.wpos)).U64(uint64(n))
		label, err := pw.sg.SendAsync(o.Bytes())
		if err != nil {
			return total, err
		}
		pw.inMsgs = append(pw.inMsgs, label)
		pw.wpos = (pw.wpos + n) % pw.size
		pw.free -= n
		buf = buf[n:]
		total += n
		if !pw.Async {
			if err := pw.collect(true); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func (pw *PipeWriter) writeRing(buf []byte, pos int) error {
	first := pw.size - pos
	if first > len(buf) {
		first = len(buf)
	}
	if err := pw.mem.Write(buf[:first], pos); err != nil {
		return err
	}
	if first < len(buf) {
		return pw.mem.Write(buf[first:], 0)
	}
	return nil
}

// collect drains acknowledgements; when wait is true it blocks for the
// oldest outstanding one — bounded by the armed call deadline, so a
// reader that died mid-pipe surfaces as a clean timeout.
func (pw *PipeWriter) collect(wait bool) error {
	for len(pw.inMsgs) > 0 {
		var data []byte
		if wait {
			var err error
			if data, err = pw.sg.CollectReply(pw.inMsgs[0]); err != nil {
				// The acknowledgement is not coming; retire its label
				// so Close does not wait on it again.
				pw.inMsgs = pw.inMsgs[1:]
				return fmt.Errorf("m3: pipe write: %w", err)
			}
		} else if data = pw.sg.TryCollectReply(pw.inMsgs[0]); data == nil {
			return nil
		}
		is := kif.NewIStream(data)
		pw.free += int(is.U64())
		pw.inMsgs = pw.inMsgs[1:]
		wait = false // only block for one
	}
	return nil
}

// Close signals end-of-file to the reader and waits until every
// notification was acknowledged.
func (pw *PipeWriter) Close() error {
	if pw.closed {
		return nil
	}
	pw.closed = true
	var o kif.OStream
	o.U64(0).U64(0)
	label, err := pw.sg.SendAsync(o.Bytes())
	if err != nil {
		return err
	}
	pw.inMsgs = append(pw.inMsgs, label)
	for len(pw.inMsgs) > 0 {
		if err := pw.collect(true); err != nil {
			return err
		}
	}
	return nil
}
