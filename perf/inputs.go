package main

import (
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

// defaultSeed selects the paper's inputs (§5.6): workload.Tar's member
// sizes in every archive and find's 40-item tree for every client.
const defaultSeed uint64 = 1

// heldOutSeed is kept out of development runs. A change that claims a
// gain shows it on this seed as well as on the seeds it was tuned on.
const heldOutSeed uint64 = 20160402

// paperTarSizes are the archived file sizes of workload.Tar: 60 to
// 500 KiB, 1.2 MiB in total.
var paperTarSizes = []int{60 << 10, 100 << 10, 150 << 10, 200 << 10, 219 << 10, 500 << 10}

const (
	minMember = 60 << 10
	maxMember = 500 << 10

	// chunkSize is the I/O size of every copy loop, as in workload.Tar.
	chunkSize = 4096

	// treeDirs and treeFiles give every tree find's 40 items.
	treeDirs  = 4
	treeFiles = 36
	// treeFileSize is the size of every file in a tree, as in find.
	treeFileSize = 128

	// tailDataSize is the file tail4's reads are served from.
	tailDataSize = 32 << 10
	// tailProbeSize is the file tail4's stats look at.
	tailProbeSize = 64
)

// Salts keep the seeded streams of different inputs independent.
const (
	saltTar uint64 = iota + 0x7065726600
	saltTree
	saltFill
	saltFault
	saltArrivals
	saltThink
)

// tarSizes returns client c's archive member sizes. Seeds other than
// defaultSeed draw six sizes between 60 and 500 KiB that add up to the
// paper's total, so every seed moves the same number of bytes.
func tarSizes(seed uint64, c int) []int {
	if seed == defaultSeed {
		return paperTarSizes
	}
	total := 0
	for _, s := range paperTarSizes {
		total += s
	}
	n := len(paperTarSizes)
	spare := total - n*minMember
	rng := sim.NewRand(sim.Hash(seed, saltTar, uint64(c)))
	for {
		w := make([]float64, n)
		var sum float64
		for i := range w {
			w[i] = rng.Float64()
			sum += w[i]
		}
		sizes := make([]int, n)
		used, ok := 0, true
		for i := range sizes {
			if i == n-1 {
				sizes[i] = total - used
			} else {
				sizes[i] = minMember + int(float64(spare)*w[i]/sum)
			}
			used += sizes[i]
			ok = ok && sizes[i] <= maxMember
		}
		if ok {
			return sizes
		}
	}
}

// fillByte is the content of one chunk of one generated file.
func fillByte(seed uint64, c, file, chunk int) byte {
	return byte(sim.Hash(seed, saltFill, uint64(c), uint64(file), uint64(chunk)))
}

// fillChunk writes file's chunk-th chunk into b.
func fillChunk(seed uint64, c, file, chunk int, b []byte) {
	v := fillByte(seed, c, file, chunk)
	for i := range b {
		b[i] = v
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileDigest is the CRC-32C of a generated file of size bytes.
func fileDigest(seed uint64, c, file, size int) uint32 {
	buf := make([]byte, chunkSize)
	var h uint32
	for chunk := 0; chunk*chunkSize < size; chunk++ {
		n := min(chunkSize, size-chunk*chunkSize)
		fillChunk(seed, c, file, chunk, buf[:n])
		h = crc32.Update(h, castagnoli, buf[:n])
	}
	return h
}

// treeEntry is one item of a client's directory tree, in creation order.
type treeEntry struct {
	path string
	dir  bool
}

// tree is the directory tree one meta16 client walks.
type tree struct {
	entries []treeEntry
	// matches counts the files a walk must report (the .log files).
	matches int
}

// treeFor returns client c's tree below /tree. The default seed gives
// find's tree: four directories of nine files, every third a match.
// Other seeds nest the four directories at random and spread the 36
// files over them, each a match with probability 1/3.
func treeFor(seed uint64, c int) tree {
	var t tree
	add := func(path string, dir bool) {
		t.entries = append(t.entries, treeEntry{path: path, dir: dir})
	}
	if seed == defaultSeed {
		for d := 0; d < treeDirs; d++ {
			dir := fmt.Sprintf("/tree/dir%d", d)
			add(dir, true)
			for f := 0; f < treeFiles/treeDirs; f++ {
				if f%3 == 0 {
					add(fmt.Sprintf("%s/match%d.log", dir, f), false)
					t.matches++
				} else {
					add(fmt.Sprintf("%s/file%d.txt", dir, f), false)
				}
			}
		}
		return t
	}
	rng := sim.NewRand(sim.Hash(seed, saltTree, uint64(c)))
	dirs := make([]string, treeDirs)
	for d := range dirs {
		parent := "/tree"
		if d > 0 && rng.Intn(2) == 0 {
			parent = dirs[rng.Intn(d)]
		}
		dirs[d] = fmt.Sprintf("%s/dir%d", parent, d)
	}
	owner := make([]int, treeFiles)
	match := make([]bool, treeFiles)
	for f := range owner {
		owner[f] = rng.Intn(treeDirs)
		match[f] = rng.Intn(3) == 0
	}
	for d, dir := range dirs {
		add(dir, true)
		for f := range owner {
			switch {
			case owner[f] != d:
			case match[f]:
				add(fmt.Sprintf("%s/match%d.log", dir, f), false)
				t.matches++
			default:
				add(fmt.Sprintf("%s/file%d.txt", dir, f), false)
			}
		}
	}
	return t
}
