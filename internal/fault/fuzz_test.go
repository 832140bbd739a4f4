package fault_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/workload"
)

// FuzzFaultPlan feeds arbitrary bytes through DecodePlan and runs every
// accepted plan against a small real workload. The property under test:
// any byte string either fails validation or produces a plan the
// simulator survives — no panic, whatever combination of losses,
// stalls, brownouts, and crashes the bytes encode. (A deadlock is a
// legal outcome: crashing the PE a service runs on parks its clients
// forever, and the engine reports that instead of hanging.)
func FuzzFaultPlan(f *testing.F) {
	// The zero plan, the determinism test's vector, and a crash-bearing
	// input seed the corpus.
	f.Add(make([]byte, 38))
	f.Add([]byte{
		0xde, 0xad, 0xbe, 0xef, 0x00, 0xc0, 0xff, 0xee, // seed
		0x01, 0x00, // drop
		0x00, 0x80, // corrupt
		0x20, 0x00, // stall rate
		0x00, 0x40, // stall cycles
		0x00, 0x10, // timeout
		0x03,       // retries
		0x00, 0x08, // heartbeat
		0x01,                               // one brownout
		0x10, 0x00, 0x20, 0x00, 0x30, 0x00, // brownout window
		0x01,             // one crash
		0x03, 0x00, 0x40, // crash PE 3 at 0x40*64
	})
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 7, // seed
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // lossless
		0x00,             // no brownouts
		0x01,             // one crash
		0x02, 0x00, 0xff, // PE 2 at 0xff*64
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := fault.DecodePlan(data)
		if err != nil {
			t.Skip()
		}
		cr, err := bench.Scenario{Workload: workload.Find(), Instances: 1, Faults: &plan}.Run()
		if err != nil {
			t.Fatalf("chaos boot failed: %v", err)
		}
		if cr.Stats.ExecutedEvents == 0 {
			t.Fatal("simulation executed no events")
		}
	})
}
