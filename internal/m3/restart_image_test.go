package m3_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// imageWith builds an m3fs image holding one file per entry, each in
// its own blocks.
func imageWith(t *testing.T, blockSize, blocks int, files map[string]string) []byte {
	t.Helper()
	fs := m3fs.NewFsCore(blockSize*blocks, blockSize)
	data := map[int][]byte{}
	for path, content := range files {
		ino, _, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := fs.Append(ino, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		fs.Truncate(ino, int64(len(content)))
		data[ext.Start] = []byte(content)
	}
	return fs.MarshalImage(func(b int) []byte { return data[b] })
}

// TestRestartFromImageKeepsAcknowledgedWrites is the regression test
// for a supervised, journaled m3fs booted from an image: a restarted
// incarnation must not write the image's data blocks back over the
// stable region, or every write a client made to an image file since
// boot is silently reverted.
func TestRestartFromImageKeepsAcknowledgedWrites(t *testing.T) {
	const crashAt = sim.Time(50000)
	img := imageWith(t, 1024, 64, map[string]string{"/a.txt": "original"})

	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(4)) // PE 3 is the spare
	kern := core.Boot(plat, 0)
	var boots int
	if _, err := kern.StartInitSupervised("m3fs", "",
		m3fs.Program(kern, m3fs.Config{Image: img, Journal: true,
			RegionSize: 32<<20 + m3fs.DefaultJournalSize}, func(*m3fs.Service) { boots++ }),
		core.RestartPolicy{MaxRestarts: 1, Backoff: 5000}); err != nil {
		t.Fatal(err)
	}
	var before, after []byte
	if _, err := kern.StartInit("client", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		defer env.Exit(0)
		if _, err := m3fs.MountAt(env, "/", ""); err != nil {
			t.Error(err)
			return
		}
		// Overwrite the image file in place: no truncation, so the
		// bytes land in the image's own block.
		f, err := env.VFS.Open("/a.txt", m3.OpenWrite)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write([]byte("MODIFIED")); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		if before, err = env.VFS.ReadFile("/a.txt"); err != nil {
			t.Error(err)
			return
		}
		// Idle through the crash, the reap and the restart.
		env.P().Sleep(crashAt + 70000 - ctx.Now())
		if after, err = env.VFS.ReadFile("/a.txt"); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	fault.Attach(kern, fault.Plan{
		Seed:            1,
		Crashes:         []fault.Crash{{PE: 1, At: crashAt}},
		HeartbeatPeriod: 10000,
		MaxMissedBeats:  2,
	})
	eng.Run()
	if boots != 2 {
		t.Fatalf("m3fs booted %d times, want 2 (initial + restart)", boots)
	}
	if string(before) != "MODIFIED" {
		t.Fatalf("before the crash /a.txt = %q, want %q", before, "MODIFIED")
	}
	if string(after) != "MODIFIED" {
		t.Fatalf("after the restart /a.txt = %q, want %q: the restart reverted an acknowledged write", after, "MODIFIED")
	}
}

// TestMismatchedImageLeavesRegionUntouched: an image whose geometry
// does not fit the region is rejected before a single data block is
// written into DRAM.
func TestMismatchedImageLeavesRegionUntouched(t *testing.T) {
	payload := strings.Repeat("x", 2048)
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"block size", imageWith(t, 2048, 64, map[string]string{"/big": payload})},
		{"block count", imageWith(t, 1024, 64<<10, map[string]string{"/big": payload[:1024]})},
	} {
		name, img := tc.name, tc.img
		eng := sim.NewEngine()
		plat := tile.NewPlatform(eng, tile.Homogeneous(3))
		kern := core.Boot(plat, 0)
		var startErr error
		if _, err := kern.StartInit("m3fs", "", func(ctx *tile.Ctx) {
			env := m3.NewEnv(ctx, kern)
			_, startErr = m3fs.Start(env, m3fs.Config{Image: img})
			env.Exit(0)
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if startErr == nil || !strings.Contains(startErr.Error(), "geometry") {
			t.Fatalf("%s: Start = %v, want a geometry error", name, startErr)
		}
		dram := make([]byte, plat.DRAM.Size())
		if err := plat.DRAM.Peek(0, dram); err != nil {
			t.Fatal(err)
		}
		if i := bytes.IndexByte(dram, 'x'); i >= 0 {
			t.Fatalf("%s: the rejected image wrote file data into DRAM at %#x", name, i)
		}
	}
}
