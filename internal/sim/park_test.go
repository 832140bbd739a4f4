package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// pinnedParkSchedules holds, for seeds 1 to 256, the FNV-64a hash of
// one sleepLoad run with Process.Sleep: its per-step log, executed
// events, sequence numbers, final time and resumes. They were recorded
// while every Spawn still built a fresh coroutine, before Spawn reused
// the coroutines of finished processes. (The loads then spawned no
// children, and earlier pins, taken while every park still took two
// coroutine switches, held the park loop to the same schedules.)
var pinnedParkSchedules = [...]uint64{
	0xfe6f167a1e2a159b, 0x717c10bdae6c3e03, 0x4c0da04b4709ec99, 0x25ccd95f1134cb15,
	0x42e6786dfd36803e, 0x57eac5199ef94e73, 0x53dbc5c9576bc6d2, 0x2049becf5afc2ab5,
	0x7e1a200cc21b8153, 0x52ff2f4401a90d35, 0x93c52e3cbfa8ee5b, 0xd7097fbe84893795,
	0xe795436929c12c99, 0x4094484906c5b707, 0xcf5e859fbaa8b1dc, 0xc2c757e9e9a23cc8,
	0xf71f5c4a74b73882, 0x6184b87ce43a8574, 0x455e2fddb1abeda1, 0xd863653ffc372dce,
	0x46d7b67d568926fd, 0x70049353f4198028, 0x41a96372633b9666, 0x61ee49b018466a83,
	0x8d0d34578b9c602e, 0xa8b5a2c5ce225d88, 0x80e01c98d3fbb3e2, 0xf892bf6c08356973,
	0x4e1c0c99211b0e10, 0xb431e6683bfd5e7f, 0x35160b2a76e17741, 0xf6a08c4f81513717,
	0x2b95e1e3e3258d70, 0x1dbed332ddb62b8c, 0xabb3a55c18155611, 0x204c0de76ba56faa,
	0x20dd3abc79f2b079, 0x415980d6073e25cd, 0xbab443a89df67623, 0x9eff29c3d46a0418,
	0xe0011ed08e826af7, 0xda2c944b7a8504f6, 0x78f8805853a6d67a, 0xb6fc03ac008b63c1,
	0x9cca8ccb2610d58d, 0x9bd87c0f72a872be, 0xb1370b19ebd24598, 0x246970ec7ba2c4f3,
	0xe3796c3022dfe11e, 0xa0cc3c6ba4c2d400, 0xcd88ae23fc30e021, 0x7075330bf83373c2,
	0xc22aacaaed358cbd, 0xd2ea96d3b1a5639b, 0x77d8bae90188f44d, 0x9aaaad355673e7ce,
	0x582f900008c3b6e7, 0xa1fcf2d35144c147, 0xc28587d2451f7fa2, 0xf65c46b9446aa78f,
	0xbca229d6f942ccff, 0xef30ab6ad8371e14, 0xfd082f522192aad4, 0x8c3f8d33c5244f21,
	0xd0f297a9128d62d9, 0x006a4026a7c08da5, 0xa1b1cf5885bb57aa, 0x08aaa6923255fbbf,
	0x682eb423aac73638, 0xa47e314f8af4d9ac, 0xddf3076259a4b741, 0x3104f3af303a1cae,
	0x47beb514b8db03e6, 0xc74246827e88a5b2, 0x35b9eac2929f562a, 0x96438eae57b8aa91,
	0x4dd1fc59058e5fcb, 0x06f94c3519c247cb, 0x957da723e016fef1, 0x4546ded428d0de45,
	0xb764b541a4a5abd1, 0xb3190d1322b5ce57, 0x5fee5f6b04a21cf4, 0x57b537a18bace9ca,
	0xd86b2af5204c3e8c, 0x0c080c57391bfa41, 0x678f62eee71d6d89, 0x75d67faa11eb1e87,
	0x65053176a6211c1e, 0xc21d5902f0c62bcb, 0xb40a620d7dc125f7, 0x6b2669e71138b369,
	0x606b653f2c76a2c8, 0xb3e330d3b357d02c, 0xbbc77fff71a42f0c, 0xbdca274d8b4ecd67,
	0xde37c514697cdb93, 0x8c2af2b133237aa3, 0x3a8f51e881fecbfa, 0x5706f4791569ea6b,
	0xd91784224315d0b1, 0x85224326f43fba56, 0xa0dd6bfdb7404a77, 0x9c0298077f74b762,
	0x4bc37d10dd7b620d, 0x9e94c5015c495db6, 0x90c5e2f03b36f689, 0x152f41218f2f789f,
	0x0a146358b611a0ec, 0xd9948872c826201d, 0x720c7593bb0aed57, 0x8bbade0b7958c35b,
	0x2c4f1714a0cf475d, 0x3b3337bf31c14a04, 0x8a8891f7c02c11e1, 0xd759d9a9abc15bec,
	0x967f7c9c03da7634, 0xe80c9c8423b495b0, 0xbba7871b6d6011b0, 0x20220ed042e6a8a9,
	0xa8357ff013ca2bb3, 0x516bdcaea5dcac53, 0x5bc6632debba6ae7, 0x70f1604f2e718c16,
	0x3b75e4162a49e972, 0x23915b1ca8e0577c, 0x70104971ce68a795, 0xeaf254b1b2dd14d2,
	0x68288aca319f2dc8, 0xd854afa3236d4639, 0xe57df68722ff582d, 0x6064a655b6253e9c,
	0x828bf6bf5f423ae3, 0xa5a56ba8de17c234, 0x923204e72d13a8d3, 0x338f0212f7dcd83a,
	0xc20ce36d7bc97ec0, 0xbe19ac2066897ac3, 0x94d5feb7e79133a2, 0x57e9ecd586015407,
	0x747373d754be2741, 0xd4c76e31ca0904ff, 0x710901f501de00ce, 0x9698f86b40530db2,
	0xea90486e18d94c31, 0x56c745ee36e938a3, 0x6f00e2de925c2cb9, 0x38ad5c47765f1cd6,
	0xf41ab61aaa48cfd6, 0xaed4600a66d4a636, 0x7f5cddb5dd5216b9, 0x7d6b8b6bdc4d9e0b,
	0x36c359693a026149, 0x2b4e06d9cc6eb400, 0x800633998438fe12, 0x1453a7c47f8c3386,
	0x49965c4fba674572, 0x14101717c0ff82ee, 0xda58fc531415b4cf, 0x6c66ad95d8c03c07,
	0x091dfc9f4986d3fc, 0x8518f9d4ec6e404c, 0x36dc3d390ce37d72, 0x38ea34aa4169ba70,
	0x5979bc3ba43ffe5d, 0x18e99bd13f337285, 0xe69cbde826045b25, 0xfe6f3c3b0f43d61d,
	0x8c90f326458d57dd, 0x8f978dbdb6bcfd21, 0x6b9f4078e337ce5a, 0x499b09e794e7627a,
	0x0b5f458f8538cacf, 0xbc99a7820c285d4d, 0xd388ac56dc845cd2, 0x9e4d58bf65db13f7,
	0xd99cfa79beb1c2ef, 0xca0c0297244a0062, 0x68b1a5729f573ae3, 0xd64bebea27b0623b,
	0x1c18e83509702e68, 0x6e66cd41a23ee318, 0xec1b05a018ba14d0, 0x2d340957bcab0e36,
	0x49b0674b40a75c86, 0xa7608ed0329976f8, 0xedd6329ffc4d9765, 0x497686aab9e6e055,
	0x301a57c0b644309a, 0x6cdae22a0ae370df, 0x1667aeec50b19dc4, 0xab5fa40a17e951f0,
	0x7f74623b88fbd131, 0x285d0a1b699eea28, 0xea863626ad872875, 0xf52505a3804bdc3a,
	0x4db45624bf078907, 0x00c0142c550b86a7, 0x02682901cb8bb92f, 0x34c0b6cbf1eda2e0,
	0x499cd4a744508f09, 0xbc1e664467e39e95, 0x53480658542fcf17, 0x5ba902df97eadd44,
	0x017d3cffd270532a, 0xbde91eddc378fd2d, 0x6b4ce7e913997bd4, 0xc2fc032a9eabba55,
	0x71d9ab1a53feae1d, 0x00139665b70eca79, 0xb52605102a19cdea, 0x29e3f345cdaebec0,
	0x077d308b78e323e2, 0xe70e1a13799625c6, 0x2de4f8e348b29c07, 0xd432fb5c8c57908a,
	0xabc441ca5e640f47, 0x64cbb2a59cfae421, 0x10c580bf56ee9495, 0xd2c13163262cff58,
	0x491813503abd6d79, 0x9b63a1bb0710a059, 0x420c0cab2297103d, 0x4b777c153eab3062,
	0x13632d181ffa793f, 0x3468ead0fe06bf8c, 0xdf7945ba878e8886, 0xef2568dced7bcce2,
	0xeafdc5dfe2203443, 0x952fcd3a52faac14, 0xf380db0db52732ec, 0x25349d67765fde22,
	0xfa37829f84a66828, 0x854dcc419310bd43, 0x2ac553054ff86355, 0x9f79495fd33ee36a,
	0x6ecfdebb8697ca2b, 0x1f44adffc0effd6b, 0x265628c8e9015a10, 0x47fc0d525a42692f,
	0x0fa47f31c2226883, 0x907a7a8323966a53, 0xcd5ac98cf64a7c76, 0x65f10db47e951a4a,
	0xb662512803a63ea0, 0x03402d1e6bdc2e8b, 0xd63e8982d6d19cc7, 0xe66dc50c06f2991e,
	0x552b4d79d8bcae2a, 0x4ad08525e7bd16e3, 0x1f212d798b1bf0cb, 0x2e0995e7165e3088,
	0xba80ef9d8ab075c6, 0xd5d0001dbdb12f39, 0x17201c5c4e408ab7, 0xbf16405ae4086b99,
}

// hash condenses everything the pins cover.
func (r sleepRun) hash() uint64 {
	h := fnv.New64a()
	for _, l := range r.log {
		fmt.Fprintln(h, l)
	}
	fmt.Fprintf(h, "executed=%d seq=%d now=%d resumes=%d\n", r.executed, r.seq, r.now, r.resumes)
	return h.Sum64()
}

// TestParkInPlaceSchedule runs the seeded mixes of sleeps, yields,
// callbacks, signals, contended resources with process and hardware
// holders, callback chains that end in a wake-up, child processes
// (joined, killed before their start or killed later), kills and
// RunUntil windows, and requires each to match its pinned hash: parks
// that run the engine's events in place, and children that run on
// reused coroutines, change nothing but the stack they run on.
func TestParkInPlaceSchedule(t *testing.T) {
	onStack := 0
	for i, want := range pinnedParkSchedules {
		seed := uint64(i + 1)
		r := newSleepLoad(seed).run((*Process).Sleep)
		if got := r.hash(); got != want {
			t.Errorf("seed %d: schedule hash %#016x, pinned %#016x", seed, got, want)
		}
		onStack += r.onStack
	}
	if onStack == 0 {
		t.Fatal("no event ran on a parked process's stack")
	}
}

// TestParkLoopKilledByItsEvent: an event that a parked process runs
// kills that process. Its code never runs again, its Done fires, and
// the run goes on with the next event on the engine's stack.
func TestParkLoopKilledByItsEvent(t *testing.T) {
	e := NewEngine()
	var victim *Process
	var joinedAt Time
	e.Spawn("joiner", func(p *Process) {
		p.Join(victim)
		joinedAt = p.Now()
	})
	var log []string
	victim = e.Spawn("victim", func(p *Process) {
		p.Sleep(10) // the kill at 5 is due first: the victim runs it
		log = append(log, "victim woke")
	})
	e.Schedule(5, func() {
		if e.looping != victim {
			t.Errorf("the kill ran on %v's stack, want the victim's", e.looping)
		}
		e.Schedule(0, func() {
			if e.looping != nil {
				t.Errorf("an event after the kill ran on %v's stack", e.looping)
			}
			log = append(log, "after kill")
		})
		victim.Kill()
	})
	e.Schedule(20, func() { log = append(log, "later") })
	e.Run()
	if strings.Join(log, ",") != "after kill,later" {
		t.Fatalf("log %v, want [after kill later]", log)
	}
	if joinedAt != 5 || !victim.Killed() {
		t.Fatalf("joiner woke at %d, victim killed %v; want 5, true", joinedAt, victim.Killed())
	}
	if e.LiveProcesses() != 0 || e.Deadlocked() {
		t.Fatalf("live %d, deadlocked %v; want 0, false", e.LiveProcesses(), e.Deadlocked())
	}
}

// TestParkLoopStopsAtRunUntilLimit: a parked process runs the events
// due by the active RunUntil limit and no further; its wake-up, past
// the limit, runs in the next run call at its own cycle.
func TestParkLoopStopsAtRunUntilLimit(t *testing.T) {
	e := NewEngine()
	var woke []Time
	var ranOn *Process
	sleeper := e.Spawn("sleeper", func(p *Process) {
		e.Schedule(5, func() { ranOn = e.looping })
		p.Sleep(10)
		woke = append(woke, p.Now())
	})
	if now := e.RunUntil(8); now != 8 || len(woke) != 0 || e.Resumes() != 1 || e.ExecutedEvents() != 2 {
		t.Fatalf("after RunUntil(8): now %d, woke %v, resumes %d, executed %d; want 8, [], 1, 2",
			now, woke, e.Resumes(), e.ExecutedEvents())
	}
	if ranOn != sleeper {
		t.Fatalf("the callback at 5 ran on %v's stack, want the sleeper's", ranOn)
	}
	e.RunUntil(20)
	if len(woke) != 1 || woke[0] != 10 || e.Resumes() != 2 || e.ExecutedEvents() != 3 {
		t.Fatalf("after RunUntil(20): woke %v, resumes %d, executed %d; want [10], 2, 3",
			woke, e.Resumes(), e.ExecutedEvents())
	}
}

// TestParkLoopPanicReachesRunCaller: a callback that panics on a
// parked process's stack panics out of Run, as a process does
// (TestProcessPanicReachesRunCaller).
func TestParkLoopPanicReachesRunCaller(t *testing.T) {
	type boom struct{ at Time }
	e := NewEngine()
	var ranOn *Process
	sleeper := e.Spawn("sleeper", func(p *Process) {
		e.Schedule(3, func() {
			ranOn = e.looping
			panic(boom{at: e.Now()})
		})
		p.Sleep(10)
		t.Error("the sleeper woke after its loop panicked")
	})
	defer func() {
		got, ok := recover().(boom)
		if !ok || got.at != 3 {
			t.Fatalf("recovered %#v, want boom{at: 3}", got)
		}
		if ranOn != sleeper {
			t.Fatalf("the callback ran on %v's stack, want the sleeper's", ranOn)
		}
	}()
	e.Run()
	t.Fatal("Run returned normally after a callback panicked")
}

// TestWakeEndsItsEvent: a Schedule, a Kill or a second wake-up after a
// wake-up in the same event panics, whether the event runs on a parked
// process's stack or on the engine's; so does a wake-up from a
// process's own code.
func TestWakeEndsItsEvent(t *testing.T) {
	for _, onEngine := range []bool{false, true} {
		for _, after := range []string{"Schedule", "Kill", "wake-up"} {
			t.Run(fmt.Sprintf("%s/engine=%v", after, onEngine), func(t *testing.T) {
				e := NewEngine()
				var msg any
				var ranOn *Process
				other := e.Spawn("other", func(p *Process) { p.Park() })
				sleeper := e.Spawn("sleeper", func(p *Process) { p.Park() })
				if onEngine {
					// A process that returns at once leaves the next
					// event to the engine's stack.
					e.Spawn("returner", func(*Process) {})
				}
				e.Schedule(5, func() {
					defer func() { msg = recover() }()
					ranOn = e.looping
					sleeper.Waker()()
					switch after {
					case "Schedule":
						e.Schedule(1, func() {})
					case "Kill":
						other.Kill()
					default:
						other.Waker()()
					}
				})
				e.Run()
				if s, _ := msg.(string); !strings.Contains(s, "a wake-up ends its event") {
					t.Fatalf("recovered %#v, want the wake-up panic", msg)
				}
				if onEngine != (ranOn == nil) {
					t.Fatalf("the event ran on %v's stack, want the engine's: %v", ranOn, onEngine)
				}
				if !sleeper.Dead() || other.Dead() {
					t.Fatalf("sleeper dead %v, other dead %v; want true, false", sleeper.Dead(), other.Dead())
				}
			})
		}
	}
	t.Run("process code", func(t *testing.T) {
		e := NewEngine()
		parked := e.Spawn("parked", func(p *Process) { p.Park() })
		var msg any
		e.Spawn("waker", func(p *Process) {
			defer func() { msg = recover() }()
			parked.Waker()()
		})
		e.Run()
		if s, _ := msg.(string); !strings.Contains(s, "wake it from an event") {
			t.Fatalf("recovered %#v, want the process-code wake-up panic", msg)
		}
	})
}
