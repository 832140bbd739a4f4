package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func mesh(t *testing.T, w, h int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	n := New(e, Config{Width: w, Height: h})
	return e, n
}

func TestXYRoundTrip(t *testing.T) {
	_, n := mesh(t, 4, 3)
	for id := 0; id < n.Nodes(); id++ {
		x, y := n.XY(NodeID(id))
		if n.ID(x, y) != NodeID(id) {
			t.Fatalf("ID(XY(%d)) = %d", id, n.ID(x, y))
		}
	}
}

func TestRouteXYOrder(t *testing.T) {
	_, n := mesh(t, 4, 4)
	// From (0,0) to (2,3): X first, then Y.
	route := n.Route(n.ID(0, 0), n.ID(2, 3))
	want := []NodeID{n.ID(1, 0), n.ID(2, 0), n.ID(2, 1), n.ID(2, 2), n.ID(2, 3)}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestRouteProperty(t *testing.T) {
	_, n := mesh(t, 5, 5)
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % n.Nodes())
		dst := NodeID(int(b) % n.Nodes())
		route := n.Route(src, dst)
		if len(route) != n.Hops(src, dst) {
			return false
		}
		if len(route) == 0 {
			return src == dst
		}
		// Route ends at dst and each step is a mesh neighbour.
		if route[len(route)-1] != dst {
			return false
		}
		prev := src
		for _, next := range route {
			if n.Hops(prev, next) != 1 {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refRoute is the dimension-ordered route as two loops — the direction
// of each dimension fixed once at the source — kept as the reference
// for the hop-by-hop walk Send and SendAsync take.
func refRoute(n *Network, src, dst NodeID) []NodeID {
	sx, sy := n.XY(src)
	dx, dy := n.XY(dst)
	var route []NodeID
	x, y := sx, sy
	for stepX := n.step(sx, dx, n.cfg.Width); x != dx; {
		x = wrap(x+stepX, n.cfg.Width)
		route = append(route, n.ID(x, y))
	}
	for stepY := n.step(sy, dy, n.cfg.Height); y != dy; {
		y = wrap(y+stepY, n.cfg.Height)
		route = append(route, n.ID(x, y))
	}
	return route
}

// TestRouteMatchesDimensionOrder: for every node pair on meshes and
// tori of odd and even extent (even tori have equal-length directions
// to break), the hop-by-hop route equals the reference.
func TestRouteMatchesDimensionOrder(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 4, Height: 4}, {Width: 5, Height: 3},
		{Width: 4, Height: 6, Torus: true}, {Width: 5, Height: 4, Torus: true}, {Width: 1, Height: 7, Torus: true},
	} {
		n := New(sim.NewEngine(), cfg)
		for src := NodeID(0); int(src) < n.Nodes(); src++ {
			for dst := NodeID(0); int(dst) < n.Nodes(); dst++ {
				got, want := n.Route(src, dst), refRoute(n, src, dst)
				if len(got) != len(want) {
					t.Fatalf("%+v %d->%d: route %v, want %v", cfg, src, dst, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%+v %d->%d: route %v, want %v", cfg, src, dst, got, want)
					}
				}
			}
		}
	}
}

func TestTransferLatency(t *testing.T) {
	e, n := mesh(t, 4, 1)
	var arrived sim.Time
	n.Attach(3, HandlerFunc(func(pkt *Packet) { arrived = e.Now() }))
	e.Spawn("tx", func(p *sim.Process) {
		n.Send(p, &Packet{Src: 0, Dst: 3, Size: 64})
	})
	e.Run()
	// 3 hops * 3 cycles + 64/8 = 9 + 8 = 17.
	if arrived != 17 {
		t.Fatalf("arrival at %d, want 17", arrived)
	}
}

func TestLocalDelivery(t *testing.T) {
	e, n := mesh(t, 2, 2)
	var arrived sim.Time
	n.Attach(1, HandlerFunc(func(pkt *Packet) { arrived = e.Now() }))
	e.Spawn("tx", func(p *sim.Process) {
		n.Send(p, &Packet{Src: 1, Dst: 1, Size: 16})
	})
	e.Run()
	// No hops, only serialization: 16/8 = 2.
	if arrived != 2 {
		t.Fatalf("local delivery at %d, want 2", arrived)
	}
}

func TestLinkContention(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 3, Height: 1})
	var arrivals []sim.Time
	n.Attach(2, HandlerFunc(func(pkt *Packet) { arrivals = append(arrivals, eng.Now()) }))
	// Two senders at node 0 push 800-byte packets over the same links.
	for i := 0; i < 2; i++ {
		eng.Spawn("tx", func(p *sim.Process) {
			n.Send(p, &Packet{Src: 0, Dst: 2, Size: 800})
		})
	}
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// First: 2 hops * 3 + 100 = 106. Second queues behind the first on
	// link 0->1 for HopLatency+ser = 103 cycles, then takes 106.
	if arrivals[0] != 106 {
		t.Fatalf("first arrival = %d, want 106", arrivals[0])
	}
	if arrivals[1] <= arrivals[0] {
		t.Fatalf("second arrival %d must be delayed past %d", arrivals[1], arrivals[0])
	}
}

func TestUnlimitedNoContention(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 3, Height: 1, Unlimited: true})
	var arrivals []sim.Time
	n.Attach(2, HandlerFunc(func(pkt *Packet) { arrivals = append(arrivals, eng.Now()) }))
	for i := 0; i < 2; i++ {
		eng.Spawn("tx", func(p *sim.Process) {
			n.Send(p, &Packet{Src: 0, Dst: 2, Size: 800})
		})
	}
	eng.Run()
	if len(arrivals) != 2 || arrivals[0] != 106 || arrivals[1] != 106 {
		t.Fatalf("arrivals = %v, want both 106", arrivals)
	}
}

func TestCountersAndStats(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	n.Attach(1, HandlerFunc(func(pkt *Packet) {}))
	eng.Spawn("tx", func(p *sim.Process) {
		n.Send(p, &Packet{Src: 0, Dst: 1, Size: 100})
		n.Send(p, &Packet{Src: 0, Dst: 1, Size: 28})
	})
	eng.Run()
	if n.PacketsSent != 2 {
		t.Fatalf("packets = %d", n.PacketsSent)
	}
	if n.BytesSent != 128 {
		t.Fatalf("bytes = %d", n.BytesSent)
	}
}

func TestSerializationRoundsUp(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 2})
	if got := n.SerializationTime(1); got != 1 {
		t.Fatalf("ser(1) = %d", got)
	}
	if got := n.SerializationTime(9); got != 2 {
		t.Fatalf("ser(9) = %d", got)
	}
	if got := n.SerializationTime(16); got != 2 {
		t.Fatalf("ser(16) = %d", got)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double attach must panic")
		}
	}()
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	n.Attach(0, HandlerFunc(func(pkt *Packet) {}))
	n.Attach(0, HandlerFunc(func(pkt *Packet) {}))
}

// TestUnattachedDeliveryPanics: the delivering hop is an engine event,
// so the panic surfaces from Engine.Run, not inside the sender.
func TestUnattachedDeliveryPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 2, Height: 1})
	eng.Spawn("tx", func(p *sim.Process) {
		n.Send(p, &Packet{Src: 0, Dst: 1, Size: 8})
	})
	defer func() {
		if recover() == nil {
			t.Error("delivery to unattached node must panic")
		}
	}()
	eng.Run()
}

func TestTorusShorterRoutes(t *testing.T) {
	eng := sim.NewEngine()
	mesh := New(eng, Config{Width: 6, Height: 6})
	torus := New(sim.NewEngine(), Config{Width: 6, Height: 6, Torus: true})
	// Corner to corner: mesh needs 10 hops, torus wraps in 2.
	src, dst := mesh.ID(0, 0), mesh.ID(5, 5)
	if got := mesh.Hops(src, dst); got != 10 {
		t.Fatalf("mesh hops = %d, want 10", got)
	}
	if got := torus.Hops(src, dst); got != 2 {
		t.Fatalf("torus hops = %d, want 2", got)
	}
	route := torus.Route(src, dst)
	if len(route) != 2 || route[len(route)-1] != dst {
		t.Fatalf("torus route = %v", route)
	}
}

func TestTorusRouteProperty(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 5, Height: 4, Torus: true})
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % n.Nodes())
		dst := NodeID(int(b) % n.Nodes())
		route := n.Route(src, dst)
		if len(route) != n.Hops(src, dst) {
			return false
		}
		if len(route) == 0 {
			return src == dst
		}
		if route[len(route)-1] != dst {
			return false
		}
		prev := src
		for _, next := range route {
			if n.Hops(prev, next) != 1 {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Width: 4, Height: 1, Torus: true})
	var arrived sim.Time
	n.Attach(3, HandlerFunc(func(pkt *Packet) { arrived = eng.Now() }))
	eng.Spawn("tx", func(p *sim.Process) {
		// 0 -> 3 wraps backwards in one hop on a 4-ring.
		n.Send(p, &Packet{Src: 0, Dst: 3, Size: 64})
	})
	eng.Run()
	// 1 hop * 3 + 64/8 = 11.
	if arrived != 11 {
		t.Fatalf("torus delivery at %d, want 11", arrived)
	}
}
