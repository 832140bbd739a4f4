package m3fs

import (
	"fmt"
	"math/rand"
	"testing"
)

// refAllocRange is the first-fit scan over a []bool bitmap that the
// word-level allocator replaced, kept as its reference: walk from hint
// counting free blocks, and if no run of n fits before the end, rescan
// from block 0. It returns the run's first block, or -1, and marks
// nothing.
func refAllocRange(bm []bool, n, hint int) int {
	used := 0
	for _, u := range bm {
		if u {
			used++
		}
	}
	if n <= 0 || used+n > len(bm) {
		return -1
	}
	run := 0
	for i := hint; i < len(bm); i++ {
		if bm[i] {
			run = 0
			continue
		}
		if run++; run == n {
			return i - n + 1
		}
	}
	if hint > 0 {
		return refAllocRange(bm, n, 0)
	}
	return -1
}

// boolBitmap expands fs's word bitmap to one bool per block.
func boolBitmap(fs *FsCore) []bool {
	bm := make([]bool, fs.TotalBlocks)
	for b := range bm {
		bm[b] = fs.isUsed(b)
	}
	return bm
}

// checkBitmap fails unless fs's bitmap equals want and no bit past
// TotalBlocks is set.
func checkBitmap(t *testing.T, ctx string, fs *FsCore, want []bool) {
	t.Helper()
	used := 0
	for b, u := range want {
		if fs.isUsed(b) != u {
			t.Fatalf("%s: block %d used=%v, want %v", ctx, b, fs.isUsed(b), u)
		}
		if u {
			used++
		}
	}
	if fs.used != used {
		t.Fatalf("%s: used = %d, want %d", ctx, fs.used, used)
	}
	if tail := fs.TotalBlocks & 63; tail != 0 && fs.bitmap[len(fs.bitmap)-1]>>tail != 0 {
		t.Fatalf("%s: bits set past block %d", ctx, fs.TotalBlocks)
	}
}

// TestAllocRangeMatchesBoolScan drives the allocator primitives with
// random allocations and frees — including hints past every free run,
// which force the wrap-around pass, and sizes spanning several words —
// on disks whose block count is not a multiple of 64, and requires the
// exact block the reference scan picks.
func TestAllocRangeMatchesBoolScan(t *testing.T) {
	for _, total := range []int{1, 63, 64, 65, 1000, 4097} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fs := NewFsCore(total*1024, 1024)
			want := make([]bool, total)
			for op := 0; op < 300; op++ {
				ctx := fmt.Sprintf("total %d seed %d op %d", total, seed, op)
				if rng.Intn(3) == 0 {
					start := rng.Intn(total)
					n := 1 + rng.Intn(min(200, total-start))
					fs.freeRange(start, n)
					for b := start; b < start+n; b++ {
						want[b] = false
					}
				} else {
					n := 1 + rng.Intn(min(300, total))
					hint := rng.Intn(total + 1)
					exp := refAllocRange(want, n, hint)
					if got := fs.allocRange(n, hint); got != exp {
						t.Fatalf("%s: allocRange(%d, %d) = %d, want %d", ctx, n, hint, got, exp)
					}
					for b := exp; exp >= 0 && b < exp+n; b++ {
						want[b] = true
					}
				}
				checkBitmap(t, ctx, fs, want)
			}
		}
	}
}

// TestAllocatorMatchesBoolScanThroughAPI runs random Append, Truncate
// and Unlink sequences on a small, fragmenting disk (1000 blocks, not a
// multiple of 64). Before every Append it asks the reference scan where
// the blocks should go, from the same hint Append derives; the extent
// Append returns must start there.
func TestAllocatorMatchesBoolScanThroughAPI(t *testing.T) {
	const total = 1000
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := NewFsCore(total*1024, 1024)
		var paths []string
		for op := 0; op < 400; op++ {
			ctx := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(10); {
			case k < 2 || len(paths) == 0:
				p := fmt.Sprintf("/f%d", op)
				if _, _, err := fs.Create(p); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				paths = append(paths, p)
			case k < 6:
				ino, _, _ := fs.Lookup(paths[rng.Intn(len(paths))])
				n := 1 + rng.Intn(256)
				hint := 0
				if e := len(ino.Extents); e > 0 {
					hint = ino.Extents[e-1].Start + ino.Extents[e-1].Blocks
				}
				exp := refAllocRange(boolBitmap(fs), n, hint)
				ext, err := fs.Append(ino, n, rng.Intn(2) == 0)
				if (err != nil) != (exp < 0) || (err == nil && ext.Start != exp) {
					t.Fatalf("%s: Append(%d) from hint %d = %v, %v; want start %d", ctx, n, hint, ext, err, exp)
				}
			case k < 8:
				ino, _, _ := fs.Lookup(paths[rng.Intn(len(paths))])
				fs.Truncate(ino, int64(rng.Intn(ino.AllocBlocks*1024+1)))
			default:
				i := rng.Intn(len(paths))
				if _, err := fs.Unlink(paths[i]); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				paths = append(paths[:i], paths[i+1:]...)
			}
			if err := fs.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
	}
}

// TestImageBitmapRoundTripAndGrow checks the word bitmap through the
// image format and through the growth loadImage applies when an image
// is smaller than the region: a fragmented 1000-block filesystem must
// come back block for block, and after growing to 4097 blocks the new
// space must be free and allocated exactly as the reference scan does.
func TestImageBitmapRoundTripAndGrow(t *testing.T) {
	fs := NewFsCore(1000*1024, 1024)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		ino, _, _ := fs.Create(fmt.Sprintf("/f%d", i))
		if _, err := fs.Append(ino, 1+rng.Intn(40), false); err != nil {
			t.Fatal(err)
		}
		fs.Truncate(ino, int64(rng.Intn(ino.AllocBlocks*1024+1)))
	}
	back, err := UnmarshalImage(fs.MarshalImage(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := boolBitmap(fs)
	checkBitmap(t, "round trip", back, want)

	back.grow(4097)
	want = append(want, make([]bool, 4097-1000)...)
	checkBitmap(t, "grown", back, want)
	for _, req := range [][2]int{{900, 990}, {64, 0}, {3000, 1000}, {200, 4000}} {
		exp := refAllocRange(want, req[0], req[1])
		if got := back.allocRange(req[0], req[1]); got != exp {
			t.Fatalf("grown allocRange(%d, %d) = %d, want %d", req[0], req[1], got, exp)
		}
		for b := exp; exp >= 0 && b < exp+req[0]; b++ {
			want[b] = true
		}
		checkBitmap(t, "grown alloc", back, want)
	}
}
