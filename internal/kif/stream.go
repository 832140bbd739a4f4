package kif

import (
	"encoding/binary"
	"fmt"
)

// OStream marshals values into a message payload. The zero value is
// ready to use. Methods return the stream for chaining, mirroring the
// paper's shift-operator marshalling in libm3.
type OStream struct {
	buf []byte
}

// Reset empties the stream for the next message, keeping its buffer,
// so an owner that marshals one message at a time reuses one stream
// instead of growing a fresh one per message. A slice returned by
// Bytes before the Reset is overwritten by the next message.
func (o *OStream) Reset() *OStream {
	o.buf = o.buf[:0]
	return o
}

// Bytes returns the marshalled payload.
func (o *OStream) Bytes() []byte { return o.buf }

// Len returns the payload size so far.
func (o *OStream) Len() int { return len(o.buf) }

// U64 appends an unsigned 64-bit value.
func (o *OStream) U64(v uint64) *OStream {
	o.buf = binary.LittleEndian.AppendUint64(o.buf, v)
	return o
}

// I64 appends a signed 64-bit value.
func (o *OStream) I64(v int64) *OStream { return o.U64(uint64(v)) }

// Op appends a syscall opcode.
func (o *OStream) Op(v SyscallOp) *OStream { return o.U64(uint64(v)) }

// Sel appends a capability selector.
func (o *OStream) Sel(v CapSel) *OStream { return o.U64(uint64(v)) }

// Err appends an error code.
func (o *OStream) Err(v Error) *OStream { return o.U64(uint64(v)) }

// Str appends a length-prefixed string.
func (o *OStream) Str(s string) *OStream {
	o.U64(uint64(len(s)))
	o.buf = append(o.buf, s...)
	return o
}

// Blob appends a length-prefixed byte slice.
func (o *OStream) Blob(b []byte) *OStream {
	o.U64(uint64(len(b)))
	o.buf = append(o.buf, b...)
	return o
}

// IStream unmarshals values from a message payload. Decoding past the
// end or malformed lengths set a sticky error checked via Err. It is
// a small value that reads buf in place: it stays valid only as long
// as the bytes it decodes do (for a message payload, until the
// message is acked).
type IStream struct {
	buf []byte
	pos int
	err error
}

// NewIStream returns a stream decoding buf.
func NewIStream(buf []byte) IStream { return IStream{buf: buf} }

// Err returns the first decoding error, or nil.
func (i *IStream) Err() error { return i.err }

// Remaining returns the undecoded byte count.
func (i *IStream) Remaining() int { return len(i.buf) - i.pos }

func (i *IStream) fail(what string) {
	if i.err == nil {
		i.err = fmt.Errorf("kif: truncated message reading %s at %d/%d", what, i.pos, len(i.buf))
	}
}

// U64 decodes an unsigned 64-bit value.
func (i *IStream) U64() uint64 {
	if i.err != nil || i.pos+8 > len(i.buf) {
		i.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(i.buf[i.pos:])
	i.pos += 8
	return v
}

// I64 decodes a signed 64-bit value.
func (i *IStream) I64() int64 { return int64(i.U64()) }

// Op decodes a syscall opcode.
func (i *IStream) Op() SyscallOp { return SyscallOp(i.U64()) }

// Sel decodes a capability selector.
func (i *IStream) Sel() CapSel { return CapSel(i.U64()) }

// ErrCode decodes an error code.
func (i *IStream) ErrCode() Error { return Error(i.U64()) }

// Str decodes a length-prefixed string.
func (i *IStream) Str() string {
	n := int(i.U64())
	// Compare against the remaining length: a hostile length near
	// MaxInt64 would wrap i.pos+n negative and pass the check.
	if i.err != nil || n < 0 || n > len(i.buf)-i.pos {
		i.fail("string")
		return ""
	}
	s := string(i.buf[i.pos : i.pos+n])
	i.pos += n
	return s
}

// Blob decodes a length-prefixed byte slice (copied).
func (i *IStream) Blob() []byte {
	n := int(i.U64())
	if i.err != nil || n < 0 || n > len(i.buf)-i.pos {
		i.fail("blob")
		return nil
	}
	b := append([]byte(nil), i.buf[i.pos:i.pos+n]...)
	i.pos += n
	return b
}
