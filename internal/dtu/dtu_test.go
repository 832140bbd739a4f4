package dtu

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// rig is a 2-PE test platform (nodes 0 and 1 on a 2x1 mesh) without the
// tile layer, so the dtu package is tested in isolation.
type rig struct {
	eng  *sim.Engine
	net  *noc.Network
	spm0 *mem.SPM
	spm1 *mem.SPM
	d0   *DTU
	d1   *DTU
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Config{Width: 2, Height: 1})
	spm0 := mem.NewSPM(64 << 10)
	spm1 := mem.NewSPM(64 << 10)
	return &rig{
		eng:  eng,
		net:  net,
		spm0: spm0,
		spm1: spm1,
		d0:   New(eng, net, 0, spm0, 8),
		d1:   New(eng, net, 1, spm1, 8),
	}
}

// channel configures a message channel d0(ep1, send) -> d1(ep0,
// receive) with the given credits, plus a reply path back to d0's ep2.
func (r *rig) channel(t *testing.T, credits int) {
	t.Helper()
	if err := r.d1.Configure(0, Endpoint{
		Type: EpReceive, BufAddr: 0, SlotSize: 256 + HeaderSize, SlotCount: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(1, Endpoint{
		Type: EpSend, Target: 1, TargetEP: 0, Label: 0xC0FFEE, Credits: credits, MsgSize: 256,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(2, Endpoint{
		Type: EpReceive, BufAddr: 8192, SlotSize: 256 + HeaderSize, SlotCount: 2,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSendReceiveReply(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	var reply []byte
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, ep := r.d1.WaitMsg(p, 0)
		if ep != 0 {
			t.Errorf("ep = %d", ep)
		}
		if msg.Label != 0xC0FFEE {
			t.Errorf("label = %#x, want 0xC0FFEE", msg.Label)
		}
		if string(msg.Data) != "ping" {
			t.Errorf("data = %q", msg.Data)
		}
		if !msg.CanReply() {
			t.Error("message should permit a reply")
		}
		if err := r.d1.Reply(p, 0, msg, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("ping"), 2, 42); err != nil {
			t.Error(err)
		}
		msg, _ := r.d0.WaitMsg(p, 2)
		if msg.Label != 42 {
			t.Errorf("reply label = %d, want 42", msg.Label)
		}
		reply = append(reply, msg.Data...) // the Ack recycles msg.Data
		r.d0.Ack(2, msg)
	})
	r.eng.Run()
	if string(reply) != "pong" {
		t.Fatalf("reply = %q, want pong", reply)
	}
}

func TestCreditsConsumeAndRestore(t *testing.T) {
	r := newRig(t)
	r.channel(t, 2)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			msg, _ := r.d1.WaitMsg(p, 0)
			if err := r.d1.Reply(p, 0, msg, []byte("ok")); err != nil {
				t.Error(err)
			}
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("a"), 2, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("b"), 2, 0); err != nil {
			t.Error(err)
		}
		if got := r.d0.Credits(1); got != 0 {
			t.Errorf("credits = %d, want 0", got)
		}
		// Third send must be denied until a reply restores a credit.
		if err := r.d0.Send(p, 1, []byte("c"), 2, 0); !errors.Is(err, ErrNoCredits) {
			t.Errorf("err = %v, want ErrNoCredits", err)
		}
		if err := r.d0.WaitCredits(p, 1, 0); err != nil {
			t.Error(err)
		}
		if err := r.d0.Send(p, 1, []byte("c"), 2, 0); err != nil {
			t.Error(err)
		}
		// Drain replies.
		for i := 0; i < 3; i++ {
			m, _ := r.d0.WaitMsg(p, 2)
			r.d0.Ack(2, m)
		}
	})
	r.eng.Run()
	if r.d0.Stats.SendsDenied != 1 {
		t.Fatalf("SendsDenied = %d, want 1", r.d0.Stats.SendsDenied)
	}
	if got := r.d0.Credits(1); got != 2 {
		t.Fatalf("final credits = %d, want 2", got)
	}
}

func TestRingbufferOverrunDrops(t *testing.T) {
	r := newRig(t)
	// 2 slots, 4 credits: the kernel violated the paper's rule of not
	// handing out more credits than buffer space — messages get dropped.
	if err := r.d1.Configure(0, Endpoint{Type: EpReceive, BufAddr: 0, SlotSize: 64 + HeaderSize, SlotCount: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.d0.Configure(1, Endpoint{Type: EpSend, Target: 1, TargetEP: 0, Credits: 4, MsgSize: 64}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < 4; i++ {
			if err := r.d0.Send(p, 1, []byte{byte(i)}, -1, 0); err != nil {
				t.Error(err)
			}
		}
	})
	r.eng.Run()
	if r.d1.Stats.MsgsReceived != 2 {
		t.Fatalf("received = %d, want 2", r.d1.Stats.MsgsReceived)
	}
	if r.d1.Stats.MsgsDropped != 2 {
		t.Fatalf("dropped = %d, want 2", r.d1.Stats.MsgsDropped)
	}
}

func TestAckFreesSlot(t *testing.T) {
	r := newRig(t)
	r.channel(t, UnlimitedCredits)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		for i := 0; i < 8; i++ {
			msg, _ := r.d1.WaitMsg(p, 0)
			r.d1.Ack(0, msg)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < 8; i++ {
			if err := r.d0.Send(p, 1, []byte{byte(i)}, -1, 0); err != nil {
				t.Error(err)
			}
			p.Sleep(100) // receiver keeps up
		}
	})
	r.eng.Run()
	if r.d1.Stats.MsgsDropped != 0 {
		t.Fatalf("dropped = %d, want 0", r.d1.Stats.MsgsDropped)
	}
	if r.d1.Stats.MsgsReceived != 8 {
		t.Fatalf("received = %d, want 8", r.d1.Stats.MsgsReceived)
	}
}

func TestReplyTwiceFails(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		if err := r.d1.Reply(p, 0, msg, []byte("x")); err != nil {
			t.Error(err)
		}
		if err := r.d1.Reply(p, 0, msg, []byte("y")); !errors.Is(err, ErrNoReply) {
			t.Errorf("second reply err = %v, want ErrNoReply", err)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("m"), 2, 0); err != nil {
			t.Error(err)
		}
		m, _ := r.d0.WaitMsg(p, 2)
		r.d0.Ack(2, m)
	})
	r.eng.Run()
}

func TestReplyToNoReplyMessageFails(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		if err := r.d1.Reply(p, 0, msg, []byte("x")); !errors.Is(err, ErrNoReply) {
			t.Errorf("err = %v, want ErrNoReply", err)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("m"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
}

func TestMsgTooLarge(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, make([]byte, 257), -1, 0); !errors.Is(err, ErrMsgTooLarge) {
			t.Errorf("err = %v, want ErrMsgTooLarge", err)
		}
	})
	r.eng.Run()
}

func TestSendOnNonSendEndpoint(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 2, []byte("x"), -1, 0); !errors.Is(err, ErrBadEndpoint) {
			t.Errorf("err = %v, want ErrBadEndpoint", err)
		}
		if err := r.d0.Send(p, 7, []byte("x"), -1, 0); !errors.Is(err, ErrBadEndpoint) {
			t.Errorf("err = %v, want ErrBadEndpoint", err)
		}
	})
	r.eng.Run()
}

func TestRingbufferWrittenToSPM(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, []byte("spm-bytes"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	// Slot 0 of d1's ep0 ringbuffer starts at BufAddr=0; payload sits
	// behind the header.
	got := make([]byte, 9)
	if err := r.spm1.Read(HeaderSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "spm-bytes" {
		t.Fatalf("SPM ringbuffer = %q", got)
	}
}

func TestRemoteSPMReadWrite(t *testing.T) {
	r := newRig(t)
	// d0 gets a memory endpoint into d1's SPM at [1024, 2048).
	if err := r.d0.Configure(3, Endpoint{
		Type: EpMemory, MemTarget: 1, MemAddr: 1024, MemSize: 1024, MemPerms: PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("rdma", func(p *sim.Process) {
		if err := r.d0.WriteMem(p, 3, 16, []byte("remote data")); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 11)
		if err := r.d0.ReadMem(p, 3, 16, buf); err != nil {
			t.Error(err)
		}
		if string(buf) != "remote data" {
			t.Errorf("rdma read = %q", buf)
		}
	})
	r.eng.Run()
	// The bytes really are in d1's SPM at 1024+16.
	got := make([]byte, 11)
	if err := r.spm1.Read(1040, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "remote data" {
		t.Fatalf("spm1 = %q", got)
	}
	if r.d0.Stats.MemReads != 1 || r.d0.Stats.MemWrites != 1 {
		t.Fatalf("stats = %+v", r.d0.Stats)
	}
}

func TestMemEndpointPermissions(t *testing.T) {
	r := newRig(t)
	if err := r.d0.Configure(3, Endpoint{
		Type: EpMemory, MemTarget: 1, MemAddr: 0, MemSize: 64, MemPerms: PermRead,
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Spawn("rdma", func(p *sim.Process) {
		if err := r.d0.WriteMem(p, 3, 0, []byte("x")); !errors.Is(err, ErrPerms) {
			t.Errorf("write err = %v, want ErrPerms", err)
		}
		if err := r.d0.ReadMem(p, 3, 60, make([]byte, 8)); !errors.Is(err, ErrBounds) {
			t.Errorf("oob err = %v, want ErrBounds", err)
		}
		if err := r.d0.ReadMem(p, 3, -4, make([]byte, 2)); !errors.Is(err, ErrBounds) {
			t.Errorf("neg err = %v, want ErrBounds", err)
		}
	})
	r.eng.Run()
}

func TestRemoteConfigRequiresPrivilege(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("kernel", func(p *sim.Process) {
		// Kernel (d0, privileged) downgrades d1.
		if err := r.d0.SetPrivilegedRemote(p, 1, false); err != nil {
			t.Error(err)
		}
		if r.d1.Privileged() {
			t.Error("d1 should be downgraded")
		}
		// d1, now unprivileged, cannot configure anything.
		if err := r.d1.Configure(0, Endpoint{Type: EpSend}); !errors.Is(err, ErrNotPrivileged) {
			t.Errorf("local config err = %v, want ErrNotPrivileged", err)
		}
		if err := r.d1.ConfigureRemote(p, 0, 0, Endpoint{Type: EpSend}); !errors.Is(err, ErrNotPrivileged) {
			t.Errorf("remote config err = %v, want ErrNotPrivileged", err)
		}
		// The kernel can configure d1's endpoints remotely.
		if err := r.d0.ConfigureRemote(p, 1, 0, Endpoint{
			Type: EpReceive, BufAddr: 0, SlotSize: 64 + HeaderSize, SlotCount: 2,
		}); err != nil {
			t.Error(err)
		}
		if r.d1.EP(0).Type != EpReceive {
			t.Errorf("d1 ep0 type = %v, want receive", r.d1.EP(0).Type)
		}
	})
	r.eng.Run()
}

func TestRemoteConfigBadRingbufferRejected(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("kernel", func(p *sim.Process) {
		err := r.d0.ConfigureRemote(p, 1, 0, Endpoint{
			Type: EpReceive, BufAddr: 64 << 10, SlotSize: 64 + HeaderSize, SlotCount: 4,
		})
		if !errors.Is(err, ErrRemote) {
			t.Errorf("err = %v, want ErrRemote (ringbuffer outside SPM)", err)
		}
	})
	r.eng.Run()
}

func TestMessageTransferTiming(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	var sent sim.Time
	r.eng.Spawn("sender", func(p *sim.Process) {
		if err := r.d0.Send(p, 1, make([]byte, 48), -1, 0); err != nil {
			t.Error(err)
		}
		sent = p.Now()
	})
	r.eng.Run()
	// 1 hop * 3 + (16 header + 48)/8 = 3 + 8 = 11 cycles.
	if sent != 11 {
		t.Fatalf("send took %d cycles, want 11", sent)
	}
}

func TestUnlimitedCreditsNeverDenied(t *testing.T) {
	r := newRig(t)
	r.channel(t, UnlimitedCredits)
	r.eng.Spawn("receiver", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			m, _ := r.d1.WaitMsg(p, 0)
			r.d1.Ack(0, m)
		}
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			if err := r.d0.Send(p, 1, []byte("m"), -1, 0); err != nil {
				t.Error(err)
			}
			p.Sleep(50)
		}
		if r.d0.Credits(1) != UnlimitedCredits {
			t.Errorf("credits changed: %d", r.d0.Credits(1))
		}
	})
	r.eng.Run()
}

func TestLabelIsUnforgeable(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	var got uint64
	r.eng.Spawn("receiver", func(p *sim.Process) {
		msg, _ := r.d1.WaitMsg(p, 0)
		got = msg.Label
		r.d1.Ack(0, msg)
	})
	r.eng.Spawn("sender", func(p *sim.Process) {
		// The sender has no API to choose the label: it is endpoint
		// state written by the kernel. Whatever the sender does, the
		// receiver sees the kernel-configured label.
		if err := r.d0.Send(p, 1, []byte("evil"), -1, 0); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if got != 0xC0FFEE {
		t.Fatalf("label = %#x, want the kernel-chosen 0xC0FFEE", got)
	}
}

func TestFetchOrderFIFO(t *testing.T) {
	r := newRig(t)
	r.channel(t, 4)
	var order []byte
	r.eng.Spawn("sender", func(p *sim.Process) {
		for i := byte(0); i < 4; i++ {
			if err := r.d0.Send(p, 1, []byte{i}, -1, 0); err != nil {
				t.Error(err)
			}
		}
	})
	r.eng.Spawn("receiver", func(p *sim.Process) {
		for i := 0; i < 4; i++ {
			m, _ := r.d1.WaitMsg(p, 0)
			order = append(order, m.Data[0])
			r.d1.Ack(0, m)
		}
	})
	r.eng.Run()
	if !bytes.Equal(order, []byte{0, 1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
}

// TestMessagePayloadProperty pushes random payloads through a channel
// and checks exact content and order at the receiver.
func TestMessagePayloadProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		if len(payloads) > 32 {
			payloads = payloads[:32]
		}
		for i := range payloads {
			if len(payloads[i]) > 256 {
				payloads[i] = payloads[i][:256]
			}
		}
		r := newRig(t)
		if err := r.d1.Configure(0, Endpoint{
			Type: EpReceive, BufAddr: 0, SlotSize: 256 + HeaderSize, SlotCount: 4,
		}); err != nil {
			return false
		}
		if err := r.d0.Configure(1, Endpoint{
			Type: EpSend, Target: 1, TargetEP: 0, Credits: 4, MsgSize: 256,
		}); err != nil {
			return false
		}
		if err := r.d0.Configure(2, Endpoint{
			Type: EpReceive, BufAddr: 8192, SlotSize: 64 + HeaderSize, SlotCount: 4,
		}); err != nil {
			return false
		}
		var got [][]byte
		r.eng.Spawn("recv", func(p *sim.Process) {
			for i := 0; i < len(payloads); i++ {
				msg, _ := r.d1.WaitMsg(p, 0)
				got = append(got, append([]byte(nil), msg.Data...))
				if err := r.d1.Reply(p, 0, msg, nil); err != nil {
					t.Error(err)
				}
			}
		})
		ok := true
		r.eng.Spawn("send", func(p *sim.Process) {
			for _, pl := range payloads {
				for {
					err := r.d0.Send(p, 1, pl, 2, 0)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrNoCredits) {
						ok = false
						return
					}
					if err := r.d0.WaitCredits(p, 1, 0); err != nil {
						ok = false
						return
					}
				}
			}
			// Drain the credit-restoring replies.
			for i := 0; i < len(payloads); i++ {
				m, _ := r.d0.WaitMsg(p, 2)
				r.d0.Ack(2, m)
			}
		})
		r.eng.Run()
		if !ok || len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return r.d1.Stats.MsgsDropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
