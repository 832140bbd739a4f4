package m3fs

import (
	"fmt"
	"testing"

	"repro/internal/m3"
	"repro/internal/sim"
)

// metadataRounds are the metadata round trips TestMetadataRoundAllocs
// bounds, each on a warm client, with the heap allocations of one
// round, client and service together. Before the service resolved
// paths in the message, kept one replay slot per client and sorted
// directories, the same rounds allocated 1, 3, 21 and 16 objects (the
// path copy; the dedup table's growth; the name list and its sort).
var metadataRounds = []struct {
	name  string
	max   float64
	round func(c *Client) error
}{
	// A stat resolves its path in the message and replies from the
	// reused stream: nothing (was 1).
	{"stat", 0, func(c *Client) error {
		_, err := c.Stat("/d/f03")
		return err
	}},
	// The client's file handle; the service keeps its open file by
	// value and overwrites the client's replay slot at the close (was
	// 3).
	{"open+close", 1, func(c *Client) error {
		f, err := c.Open("/d/f03", m3.OpenRead)
		if err != nil {
			return err
		}
		return f.Close()
	}},
	// Two chunks of a 12-entry directory: the client's listing and its
	// 12 names; the service slices its sorted entries (was 21).
	{"readdir", 13, func(c *Client) error {
		ents, err := c.ReadDir("/d")
		if err == nil && len(ents) != 12 {
			err = fmt.Errorf("readdir /d: %d entries, want 12", len(ents))
		}
		return err
	}},
	// The stored entry name and the new inode (was 16).
	{"mkdir+unlink", 2, func(c *Client) error {
		if err := c.Mkdir("/d/tmp"); err != nil {
			return err
		}
		return c.Unlink("/d/tmp")
	}},
}

// TestMetadataRoundAllocs bounds the heap allocations of warm metadata
// round trips, and checks that the dedup table holds one slot for the
// one client however many tokened mutations it applied.
func TestMetadataRoundAllocs(t *testing.T) {
	for _, tc := range metadataRounds {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(t, 3)
			kick := sim.NewSignal(s.eng)
			var err error
			s.app(t, "client", func(env *m3.Env) {
				c, merr := Mount(env, "")
				if merr == nil {
					merr = c.Mkdir("/d")
				}
				for i := 0; merr == nil && i < 12; i++ {
					var f m3.File
					if f, merr = c.Open(fmt.Sprintf("/d/f%02d", i), m3.OpenWrite|m3.OpenCreate); merr == nil {
						merr = f.Close()
					}
				}
				if err = merr; err != nil {
					return
				}
				env.P().SetDaemon()
				for err == nil {
					kick.Wait(env.P())
					err = tc.round(c)
				}
			})
			round := func() {
				kick.Notify()
				s.eng.Run()
			}
			s.eng.Run() // boot, set up, and park on kick
			// Many turns of the calendar wheel: each bucket allocates its
			// backing array the first time it holds an event.
			for i := 0; i < 5000; i++ {
				round()
			}
			allocs := testing.AllocsPerRun(200, round)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.1f allocations per round", allocs)
			if allocs > tc.max {
				t.Errorf("a warm %s allocates %.1f objects, want at most %v", tc.name, allocs, tc.max)
			}
			if n := len(s.svc.applied); n != 1 {
				t.Errorf("dedup table holds %d entries for 1 client", n)
			}
		})
	}
}
