package core

import "sort"

// allocator is a first-fit free-list allocator over a byte range, used
// by the kernel to hand out DRAM regions (the kernel "decides which
// application can use which parts of which memories").
type allocator struct {
	free []span // sorted by addr, coalesced
}

type span struct{ addr, size int }

func newAllocator(addr, size int) *allocator {
	return &allocator{free: []span{{addr, size}}}
}

// alloc returns the address of a free region of the given size, or
// false when no region fits.
func (a *allocator) alloc(size int) (int, bool) {
	if size <= 0 {
		return 0, false
	}
	for i := range a.free {
		if a.free[i].size >= size {
			addr := a.free[i].addr
			a.free[i].addr += size
			a.free[i].size -= size
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return addr, true
		}
	}
	return 0, false
}

// release returns a region to the free list, coalescing neighbours.
func (a *allocator) release(addr, size int) {
	if size <= 0 {
		return
	}
	a.free = append(a.free, span{addr, size})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].addr < a.free[j].addr })
	out := a.free[:1]
	for _, s := range a.free[1:] {
		last := &out[len(out)-1]
		if last.addr+last.size >= s.addr {
			if end := s.addr + s.size; end > last.addr+last.size {
				last.size = end - last.addr
			}
		} else {
			out = append(out, s)
		}
	}
	a.free = out
}

// totalFree returns the free byte count (for tests and stats).
func (a *allocator) totalFree() int {
	n := 0
	for _, s := range a.free {
		n += s.size
	}
	return n
}
