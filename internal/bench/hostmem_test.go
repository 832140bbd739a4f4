package bench

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestFig6BootHeapFollowsWrittenPages boots the Figure 6 platform,
// whose DRAM module is 512 MiB, three times in one process, runs two
// untar instances on each and keeps every platform alive. The heap
// grows by the DRAM pages the runs wrote plus the platforms' own
// state, not by the module's size.
func TestFig6BootHeapFollowsWrittenPages(t *testing.T) {
	const boots = 3
	untar, err := workload.ByName("untar")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := make([]*Result, boots)
	written := 0
	for i := range keep {
		r, err := Scenario{Workload: untar, Instances: 2, M3Options: Fig6Options()}.Run()
		if err != nil {
			t.Fatal(err)
		}
		written += r.Plat.DRAM.Resident()
		keep[i] = r
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d boots: heap grew %d KiB, %d KiB of it written DRAM pages", boots, grew>>10, written>>10)
	if written == 0 {
		t.Error("the boots wrote no DRAM page; the test measures nothing")
	}
	// Besides its pages a boot holds its engine, mesh, PEs, kernel,
	// m3fs and workload state; a flat module would add 512 MiB a boot.
	if limit := int64(written) + boots*(4<<20); grew > limit {
		t.Errorf("%d boots grew the heap by %d MiB, want <= %d MiB (written pages plus 4 MiB a boot)",
			boots, grew>>20, limit>>20)
	}
	runtime.KeepAlive(keep)
}
