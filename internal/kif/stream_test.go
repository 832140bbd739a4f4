package kif

import (
	"testing"
	"testing/quick"
)

func TestStreamRoundTrip(t *testing.T) {
	var o OStream
	o.Op(SysCreateVPE).Sel(7).Str("hello").U64(99).I64(-5).Blob([]byte{1, 2, 3}).Err(ErrNoSpace)
	i := NewIStream(o.Bytes())
	if got := i.Op(); got != SysCreateVPE {
		t.Fatalf("op = %v", got)
	}
	if got := i.Sel(); got != 7 {
		t.Fatalf("sel = %v", got)
	}
	if got := i.Str(); got != "hello" {
		t.Fatalf("str = %q", got)
	}
	if got := i.U64(); got != 99 {
		t.Fatalf("u64 = %d", got)
	}
	if got := i.I64(); got != -5 {
		t.Fatalf("i64 = %d", got)
	}
	b := i.Blob()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("blob = %v", b)
	}
	if got := i.ErrCode(); got != ErrNoSpace {
		t.Fatalf("err = %v", got)
	}
	if i.Err() != nil {
		t.Fatalf("stream err = %v", i.Err())
	}
	if i.Remaining() != 0 {
		t.Fatalf("remaining = %d", i.Remaining())
	}
}

func TestStreamTruncation(t *testing.T) {
	var o OStream
	o.U64(1).Str("abcdef")
	raw := o.Bytes()
	i := NewIStream(raw[:10])
	i.U64()
	_ = i.Str()
	if i.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Sticky: subsequent reads return zero values without panicking.
	if v := i.U64(); v != 0 {
		t.Fatalf("after error, u64 = %d", v)
	}
}

func TestStreamEmptyString(t *testing.T) {
	var o OStream
	o.Str("").Blob(nil)
	i := NewIStream(o.Bytes())
	if s := i.Str(); s != "" {
		t.Fatalf("str = %q", s)
	}
	if b := i.Blob(); len(b) != 0 {
		t.Fatalf("blob = %v", b)
	}
	if i.Err() != nil {
		t.Fatal(i.Err())
	}
}

func TestStreamProperty(t *testing.T) {
	f := func(a uint64, s string, b []byte, c int64) bool {
		var o OStream
		o.U64(a).Str(s).Blob(b).I64(c)
		i := NewIStream(o.Bytes())
		return i.U64() == a && i.Str() == s && string(i.Blob()) == string(b) && i.I64() == c && i.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorStrings(t *testing.T) {
	if OK.Error() != "ok" {
		t.Fatal("OK string")
	}
	if ErrNoSuchFile.Error() != "no such file or directory" {
		t.Fatalf("ErrNoSuchFile = %q", ErrNoSuchFile.Error())
	}
	if Error(9999).Error() != "unknown error" {
		t.Fatal("unknown error string")
	}
	if SysActivate.String() != "activate" {
		t.Fatal("opcode name")
	}
	if SyscallOp(9999).String() != "unknown" {
		t.Fatal("unknown opcode name")
	}
}

// TestStreamHostileLength: a length field near MaxInt64 must fail the
// decode, not wrap the bound check negative and panic on the slice.
func TestStreamHostileLength(t *testing.T) {
	for _, n := range []uint64{1<<63 - 4, 1<<63 - 1, 1 << 63, ^uint64(0), 1<<63 - 9} {
		var o OStream
		o.U64(n).U64(0xFEED)
		i := NewIStream(o.Bytes())
		if s := i.Str(); s != "" || i.Err() == nil {
			t.Errorf("Str with length %#x = %q, err %v; want a decode error", n, s, i.Err())
		}
		i = NewIStream(o.Bytes())
		if b := i.Blob(); b != nil || i.Err() == nil {
			t.Errorf("Blob with length %#x = %v, err %v; want a decode error", n, b, i.Err())
		}
	}
}

// TestOStreamReset: Reset starts the next message in the same buffer.
func TestOStreamReset(t *testing.T) {
	var o OStream
	o.U64(1).Str("first message")
	before := &o.Bytes()[0]
	o.Reset().U64(2)
	if o.Len() != 8 || &o.Bytes()[0] != before {
		t.Fatalf("after Reset: len %d, buffer reused %v", o.Len(), &o.Bytes()[0] == before)
	}
	if i := NewIStream(o.Bytes()); i.U64() != 2 || i.Remaining() != 0 {
		t.Fatal("Reset stream does not decode as the new message")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		o.Reset().Op(SysNoop).Sel(3).Str("path/to/file").U64(7)
		i := NewIStream(o.Bytes())
		_, _, _ = i.Op(), i.Sel(), i.U64()
	}); allocs != 0 {
		t.Fatalf("marshal into a reset stream and decode: %.0f allocs, want 0", allocs)
	}
}

// FuzzIStream decodes arbitrary bytes with an arbitrary sequence of
// decode operations. Any PE can put such bytes on the kernel's syscall
// gate or a service's request gate, so decoding must never panic, must
// never read past the buffer, and must keep its error sticky.
func FuzzIStream(f *testing.F) {
	var o OStream
	o.Op(SysOpenSess).Sel(1).Str("m3fs").Blob([]byte{1, 2})
	f.Add(o.Bytes(), []byte{0, 1, 2, 3})
	f.Add([]byte{0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'x'}, []byte{2})
	f.Add([]byte{}, []byte{0, 2, 3})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		i := NewIStream(data)
		failed := false
		for _, op := range ops {
			before := i.Remaining()
			switch op % 4 {
			case 0:
				i.U64()
			case 1:
				i.I64()
			case 2:
				i.Str()
			case 3:
				i.Blob()
			}
			if i.Remaining() < 0 || i.Remaining() > before {
				t.Fatalf("remaining went from %d to %d", before, i.Remaining())
			}
			if failed && i.Err() == nil {
				t.Fatal("decode error was not sticky")
			}
			failed = i.Err() != nil
		}
	})
}
