package m3_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/sim"
)

// Direct gate-level tests: the client/server message patterns libm3
// builds everything else on.

func TestServerWithMultipleLabeledSenders(t *testing.T) {
	s := newSystem(t, 6)
	got := map[uint64]int{}
	s.app(t, "server", func(env *m3.Env) {
		rg, err := env.NewRecvGate(128, 8)
		if err != nil {
			t.Error(err)
			return
		}
		// Three clients, each with a distinct receiver-chosen label.
		var vpes []*m3.ChildVPE
		for i := uint64(1); i <= 3; i++ {
			sg, err := rg.NewSendGate(i, 2)
			if err != nil {
				t.Error(err)
				return
			}
			vpe, err := env.NewVPE("client", "")
			if err != nil {
				t.Error(err)
				return
			}
			if err := vpe.Delegate(sg, 500, 1); err != nil {
				t.Error(err)
				return
			}
			if err := vpe.Run(func(child *m3.Env) {
				csg := child.SendGateAt(500)
				for n := 0; n < 4; n++ {
					if _, err := csg.Call([]byte{byte(n)}); err != nil {
						child.SetExit(1)
						return
					}
				}
			}); err != nil {
				t.Error(err)
				return
			}
			vpes = append(vpes, vpe)
		}
		// The server identifies each client by the unforgeable label —
		// "no additional lookup in a hash table is necessary" (§4.4.2).
		for i := 0; i < 12; i++ {
			msg := rg.Recv()
			got[msg.Label]++
			if err := rg.Reply(msg, []byte("ok")); err != nil {
				t.Error(err)
				return
			}
		}
		for _, vpe := range vpes {
			if code, err := vpe.Wait(); err != nil || code != 0 {
				t.Errorf("client exit %d, %v", code, err)
			}
		}
	})
	s.eng.Run()
	for i := uint64(1); i <= 3; i++ {
		if got[i] != 4 {
			t.Fatalf("label %d: %d messages, want 4 (map %v)", i, got[i], got)
		}
	}
}

func TestTrySendExhaustsWithoutBlocking(t *testing.T) {
	s := newSystem(t, 4)
	s.app(t, "trysend", func(env *m3.Env) {
		rg, err := env.NewRecvGate(64, 2)
		if err != nil {
			t.Error(err)
			return
		}
		sg, err := rg.NewSendGate(9, 2)
		if err != nil {
			t.Error(err)
			return
		}
		vpe, err := env.NewVPE("burst", "")
		if err != nil {
			t.Error(err)
			return
		}
		if err := vpe.Delegate(sg, 500, 1); err != nil {
			t.Error(err)
			return
		}
		var denied int64
		if err := vpe.Run(func(child *m3.Env) {
			csg := child.SendGateAt(500)
			d := int64(0)
			for n := 0; n < 5; n++ {
				if err := csg.TrySend([]byte{byte(n)}); err != nil {
					if !errors.Is(err, dtu.ErrNoCredits) {
						child.SetExit(2)
						return
					}
					d++
				}
			}
			child.SetExit(d)
		}); err != nil {
			t.Error(err)
			return
		}
		denied, err = vpe.Wait()
		if err != nil {
			t.Error(err)
			return
		}
		// 2 credits, 5 attempts, no replies in between: 3 denied.
		if denied != 3 {
			t.Errorf("denied = %d, want 3", denied)
		}
		// The two delivered messages are pending.
		n := 0
		for {
			msg := rg.TryRecv()
			if msg == nil {
				break
			}
			n++
			rg.Ack(msg)
		}
		if n != 2 {
			t.Errorf("delivered = %d, want 2", n)
		}
	})
	s.eng.Run()
}

func TestCallRepliesRoutedByLabel(t *testing.T) {
	s := newSystem(t, 4)
	// Two services on the same env answered out of order would corrupt
	// call/reply matching if labels were not respected. Here we check
	// the simplest property: sequential calls always see their own
	// reply payloads.
	s.app(t, "labels", func(env *m3.Env) {
		rg, err := env.NewRecvGate(128, 4)
		if err != nil {
			t.Error(err)
			return
		}
		sg, err := rg.NewSendGate(1, 4)
		if err != nil {
			t.Error(err)
			return
		}
		// Echo server on a second PE.
		vpe, err := env.NewVPE("echo", "")
		if err != nil {
			t.Error(err)
			return
		}
		// The echo server owns the rgate? No: receive gates stay with
		// their creator. Instead the child calls us and we reply.
		if err := vpe.Delegate(sg, 500, 1); err != nil {
			t.Error(err)
			return
		}
		if err := vpe.Run(func(child *m3.Env) {
			csg := child.SendGateAt(500)
			for n := byte(0); n < 8; n++ {
				resp, err := csg.Call([]byte{n})
				if err != nil || len(resp) != 1 || resp[0] != n+100 {
					child.SetExit(1)
					return
				}
			}
		}); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 8; i++ {
			msg := rg.Recv()
			if err := rg.Reply(msg, []byte{msg.Data[0] + 100}); err != nil {
				t.Error(err)
				return
			}
		}
		if code, err := vpe.Wait(); err != nil || code != 0 {
			t.Errorf("echo client exit %d, %v", code, err)
		}
	})
	s.eng.Run()
}

func TestSelectorAllocationMonotonic(t *testing.T) {
	s := newSystem(t, 3)
	s.app(t, "sels", func(env *m3.Env) {
		a := env.AllocSel()
		b := env.AllocSels(4)
		c := env.AllocSel()
		if b != a+1 || c != b+4 {
			t.Errorf("selector allocation: %d %d %d", a, b, c)
		}
		if a == kif.InvalidSel || b == kif.InvalidSel {
			t.Error("allocated invalid selector")
		}
	})
	s.eng.Run()
}

// TestBlockingCallsApplyArmedBudget checks that every blocking libm3
// operation bounds itself by the PE's armed call budget, the fault
// configuration's CallDeadline, against a receiver that never answers:
// each gives up with kif.ErrTimeout exactly budget cycles into its
// wait. With no budget armed the same operations block for good and
// schedule no deadline event.
func TestBlockingCallsApplyArmedBudget(t *testing.T) {
	const budget = 20000
	// ackWait is the hardware ack a send waits for under the fault
	// layer before Call's reply wait begins; only Call sends inside the
	// measured operation, and its setup measures the ack on a warm send.
	var ackWait uint64
	cases := []struct {
		name    string
		credits int
		// setup activates the gates outside the measured wait and
		// returns the blocking operation.
		setup func(env *m3.Env, sg *m3.SendGate) (func() error, error)
	}{
		{"Call", 3, func(env *m3.Env, sg *m3.SendGate) (func() error, error) {
			call := func() error {
				_, err := sg.Call([]byte("call"))
				return err
			}
			// The first send activates the gate; the second is a bare
			// send of the call's size, so its wait is the ack alone.
			if err := sg.TrySend([]byte("warm")); err != nil {
				return call, err
			}
			idle := env.DTU().Stats.IdleCycles
			err := sg.TrySend([]byte("warm"))
			ackWait = env.DTU().Stats.IdleCycles - idle
			return call, err
		}},
		{"Recv", 1, func(env *m3.Env, sg *m3.SendGate) (func() error, error) {
			rg, err := env.NewRecvGate(64, 2)
			return func() error {
				if msg := rg.Recv(); msg != nil {
					return fmt.Errorf("Recv = %v on a silent gate", msg)
				}
				return fmt.Errorf("recv: %w", kif.ErrTimeout)
			}, err
		}},
		{"SendAsync", 1, func(env *m3.Env, sg *m3.SendGate) (func() error, error) {
			// The warm-up spends the only credit, so SendAsync stalls.
			return func() error {
				_, err := sg.SendAsync([]byte("async"))
				return err
			}, sg.TrySend([]byte("warm"))
		}},
		{"CollectReply", 1, func(env *m3.Env, sg *m3.SendGate) (func() error, error) {
			label, err := sg.SendAsync([]byte("async"))
			return func() error {
				_, err := sg.CollectReply(label)
				return err
			}, err
		}},
	}
	for _, tc := range cases {
		for _, armed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/armed=%v", tc.name, armed), func(t *testing.T) {
				s := newSystem(t, 4)
				var start sim.Time
				var idle uint64
				var opErr error
				returned := false
				s.app(t, "server", func(env *m3.Env) {
					// The receive gate is never read: a silent receiver.
					rg, err := env.NewRecvGate(64, 4)
					if err != nil {
						t.Error(err)
						return
					}
					sgSel, err := rg.NewSendGate(1, tc.credits)
					if err != nil {
						t.Error(err)
						return
					}
					vpe, err := env.NewVPE("client", "")
					if err != nil {
						t.Error(err)
						return
					}
					if err := vpe.Delegate(sgSel, 500, 1); err != nil {
						t.Error(err)
						return
					}
					if err := vpe.Run(func(child *m3.Env) {
						d := child.DTU()
						if armed {
							d.EnableFaults(&dtu.FaultConfig{CallDeadline: budget})
						}
						ackWait = 0
						op, serr := tc.setup(child, child.SendGateAt(500))
						if serr != nil {
							t.Error(serr)
							return
						}
						start, idle = child.Ctx.Now(), d.Stats.IdleCycles
						opErr = op()
						idle = d.Stats.IdleCycles - idle
						returned = true
					}); err != nil {
						t.Error(err)
						return
					}
					if _, err := vpe.Wait(); err != nil {
						t.Error(err)
					}
				})
				end := s.eng.Run()
				if !armed {
					if returned {
						t.Fatalf("returned %v without a budget; want an unbounded wait", opErr)
					}
					// The engine drained: a deadline timer would have kept
					// the run going until it fired.
					if end-start >= 1000 {
						t.Errorf("run ended %d cycles after the wait began; a deadline event was scheduled", end-start)
					}
					return
				}
				if !returned {
					t.Fatal("never returned under an armed budget")
				}
				if !errors.Is(opErr, kif.ErrTimeout) {
					t.Errorf("err = %v, want kif.ErrTimeout", opErr)
				}
				if idle != budget+ackWait {
					t.Errorf("waited %d cycles, want exactly the budget %d after a %d-cycle ack", idle, budget, ackWait)
				}
			})
		}
	}
}
