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
// while every park still took two coroutine switches, before a parked
// process ran the engine's events itself.
var pinnedParkSchedules = [...]uint64{
	0xd77e7cfa7f6a7517, 0xb76d649c92e5d202, 0x0f50630c49639f10, 0x25d26a40b9cddacc,
	0x8c57c34fe425cf80, 0x934deb4bd631da61, 0x1dbba1d7ac52e6cb, 0x5a22861c6f2b4f91,
	0x9e928c48ff8aa8ca, 0xaee6f19cb8a7f43e, 0xb529193132f2aa73, 0x5f0263753728c953,
	0xab54a8ae63b0f17f, 0xf1c02cf2f6efec14, 0xbd749490036f4427, 0xc0da7b7918ff17a4,
	0xd3bf87e108190547, 0xbad0c2cf3737e9d7, 0x0dccaecc82fd00c0, 0xa6b2fef647b1ebaa,
	0x9a476fe3da48989d, 0x6e82f08372a594f2, 0xd284442dff67b6a0, 0xf70bfb24d8cad4d2,
	0x9e2ccc649561942a, 0x5f99450744ba924e, 0x5a34ea09b2363a20, 0x11504ae8fb682aa7,
	0xe3c3b8fa6c5f37d9, 0x221a850f0a5a9e8d, 0x23a149585672ce57, 0x963f73ba008ee788,
	0x55c4f4988b58b3de, 0x5881ea3e56181140, 0x784d995418aa68cb, 0xa199b379e004bfb9,
	0xe15ecdb851847367, 0xc10616a921a706bf, 0xd456fb8ffb136fef, 0x7bc73b65fa0941cf,
	0x98b1a24f011cf242, 0xc3e1904fcecbc154, 0x4f75ccd10c787b13, 0x6c997a2953236e49,
	0x23786b71aed4b7e5, 0xc8e9b64bfd302245, 0xab25b008dcb0ad2f, 0x6278138992111c15,
	0x5d65f1cfa5b1e9f4, 0xeae77d4542b78e23, 0xe6c20b2dbd9c1808, 0x3df81ff192e21071,
	0xfcb4c9972386e004, 0x4b5fd9b8295007b2, 0x26a69704c2272ed1, 0xfb2544dcb96d8888,
	0x7767675a2a896530, 0x39706b2c7966f0f5, 0x90107b40262cfa08, 0xb9e94e918ab5598c,
	0x49fc1f81042bc3d8, 0x94629dc47425a254, 0xb77631a06aaa5129, 0x16ec87179384a479,
	0xe4fc5ab8e5e99352, 0x8d39c00efbd40835, 0x42a54e585673d803, 0xbffb646c11773b37,
	0x4f0d269ab335e680, 0xb2dff8c8393d36ca, 0xb5860afdcc2e6582, 0x3f9e16d785ef3cde,
	0x2c8bd57a17e95702, 0x04d89ba75ed9b61e, 0x9f6294e4aa038da6, 0xa07e70cb10c432d8,
	0x4dd1fc59058e5fcb, 0xad09a63203689c93, 0x430061b732f26d9e, 0x5b1cc6bb7c5a20a9,
	0xa21821be005be93a, 0xd739d0894ec4c8cf, 0x3a6bc90796bc6d58, 0x348b342554516a8e,
	0xdbd0f695be3d9515, 0xe8d8fae4c94fd3a9, 0x657d402b2cbc77d9, 0xb84417ba68deacf9,
	0x2b0f17593905e680, 0xccb6627c12fe9c86, 0x44949f3d0123cc84, 0x2af530aadea501f9,
	0x2ce2043a6fb223b9, 0x4557329a25734e80, 0x82aa0790a7d95e6a, 0x5235dcebbf0752eb,
	0xb24560fc1379d7c1, 0xeee8129d65b466fb, 0x034648e116ef92f6, 0x0c3f742d4659e1ca,
	0x295495893ea70d4d, 0x8f6bab1b48a528c3, 0xdf6a7a4d785f2c71, 0xe19cb4310e1a5831,
	0x07a9c5b8527a9de7, 0x44df511e19daf493, 0x238830bb7e6e5f55, 0x46f2d50121b55082,
	0x258c6b0d08c450ca, 0x1280da5fba580d35, 0x12da3628d71f447c, 0x3b90684dc759387a,
	0x08edbb24ba96e5ca, 0xca70396ddf089b60, 0xe2f1ba18eb9de751, 0x6dbbb5324b682449,
	0xf26cf43915b941d8, 0xe6ca0ffb9d2f9ab5, 0x478d62f4ac064778, 0x5ded343b49c8e21e,
	0xfedee91a2ab2ca93, 0x5a58e39948445fb2, 0xbcee693bfbabde95, 0x3636c76f035863f8,
	0x976589e3e37adc6a, 0x94e40920a4bd3df2, 0xabfc31f9b7ff4498, 0x3dc0ff2d9abceb8f,
	0x1bb37edb77ab4800, 0x446a9cf391f419d9, 0x8e35b0c1b181505e, 0xa2f980386ebfb21a,
	0x74b0ae99f067bb76, 0x0517290c5061c75f, 0xec56371308232e6d, 0x2bf189474d459f71,
	0xee2157a2c6c624e9, 0x02f60bf6ddb3e0ee, 0x905b28fa6e12cd44, 0xbef9373aafc3a53b,
	0x350271a8ec78521c, 0xb83769cad2f96c32, 0x9b9742a3d49cb579, 0x6e834da0e618e6be,
	0xc0d178e4adadca4c, 0x44e53e519eac9f1b, 0x8e0dc64c2af97497, 0x05a342543c2742e2,
	0x7cf826fc962cd05d, 0x766808cb2ac22d75, 0x9d30d0165b510323, 0xb18b0f9713d23eef,
	0x1218b5479ba09b2b, 0x837b591f675984f8, 0xa2ea0970f88cd120, 0xd4dfdf977961b571,
	0xfed859104fb51498, 0xd6eb7619b1457927, 0x7d37592db11b779b, 0xce6f292d8c681edd,
	0x5ac7bd458133f24d, 0x817ed3192ffaf1f6, 0xe85dd07b6723a2dc, 0xd7c5c2ae877c374d,
	0xa9edb404809df46d, 0xe07a8996a3a344b6, 0x9104c927bd6e5d98, 0xc26ab1b460e84601,
	0x7efa53ce17610be9, 0xc43b697e1b2cfaa9, 0x2198587133007a3c, 0x4675d0ec2dc0c52d,
	0xb5db5c67ae8b68c7, 0xdce749910e9233bf, 0xc215cb449fca9157, 0xe2989ff3fcfc4f8c,
	0xd72a82a69c764e60, 0xfa8413a040495e11, 0xe210636fa8d94e86, 0xa1c8329f9b248921,
	0x825ade117ac8050e, 0x6f1be5000ff0bb80, 0x7c2d743f9c273fe8, 0x3b351b2e876a5f44,
	0xd882d9f151303d38, 0x20f8fc9ef574f2bb, 0xd427898c339d12f4, 0xa5e37fad7153b06f,
	0xd489e500ae06c874, 0xdb21cd07720b2a15, 0x7ce5b1b21662a89a, 0xa4237f53c29faf2f,
	0x0d4e4becc1968fa9, 0xfd7b737203bbca00, 0x7bf52f3e881ea21d, 0x41816363856e800d,
	0xbaaafb1c43a0bea6, 0xed3c64dfeaa59a2b, 0x54b00a770a4070b0, 0x9004e341da2022b8,
	0x4e109f25f92bbba5, 0x3084b9cff674cc59, 0xa39fda4a124090a8, 0x66b77eef0638801f,
	0x622e1ad6e3aa32ed, 0xd1b00b8b3c45c494, 0xcdba7667abbafbde, 0x75dcd552989dce28,
	0x71a27653259fdfaa, 0x224c33e4a7cd2871, 0x8a1d1e2d5042a8fd, 0x5b0fe340f4a8c626,
	0x0fe6e038724428be, 0x24060f388004f7ec, 0x84b30fcff30e8720, 0x1757252912a5b54d,
	0x3f77808ba3f0b796, 0x3e10f42285652d28, 0x55793701e1efe3ef, 0xbf903392b0405b06,
	0x9c069eefc7c618bb, 0xc72dddcc64e4ffdb, 0xa777211dd6b3de3d, 0x5f8834fb04fc45c2,
	0x86902c9ae16dd86e, 0x1aa2e5118e3a8408, 0xc28330dea2d41d0f, 0xc41ce3604ed9509a,
	0x116c1c57ff4760d7, 0xa0e2407a4fb00d5e, 0xc69d0c88705dcfc0, 0x6d63b3697f695e59,
	0xcb9b270ba40680ab, 0x8d0ee06c0e7b3d8a, 0xf43ff4c41d81f51d, 0xd6cb2fc5f7a99f5a,
	0x9ac38f9f9e6db072, 0xecaf8b62ed2ce1cc, 0xd70cff5afa0a7b5f, 0x296ee6267caf0460,
	0xbaf0366af2ee735d, 0xa5ec619cef98d53a, 0x3f193a689164192b, 0x0e811defd9897355,
	0xff69534db5a07a3d, 0xf656697f66eeb6e0, 0x2577483377de6c79, 0x68f6ef8d709fa4ff,
	0x628b767b9695941a, 0xdaa10851f8e81b1d, 0x945e223b8258f2c6, 0x21d571cf54f1371f,
	0x30be479e1d50f474, 0xd96470181a763d9f, 0x5e0c6eea67667c1c, 0xdddaf0d069a4eaec,
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
// holders, callback chains that end in a wake-up, kills and RunUntil
// windows, and requires each to match its pinned hash: parks that run
// the engine's events in place change nothing but the stack they run
// on.
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
