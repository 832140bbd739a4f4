package m3fs

import (
	"fmt"
	"sort"

	"repro/internal/kif"
)

// On-disk image format. The paper chose m3fs's organization "to be
// suitable for persistent storage as well" (§4.5.8): superblock, block
// bitmap, inode table with extents, and directories pointing to
// inodes. MarshalImage serializes exactly that, together with the used
// data blocks, so a filesystem can be dumped and later mounted from
// the image (the service loads it into DRAM first — the buffer cache —
// as the paper describes for persistent files).
//
// Layout (all fields little endian, via the kif streams):
//
//	superblock: magic, version, blockSize, totalBlocks, nextIno, rootIno
//	inode table: one record per inode (number, type, size, extents)
//	directory table: one record per directory entry (dir, name, child)
//	data: one record per used block (block number, blockSize bytes)

// imageMagic identifies an m3fs image.
const imageMagic = 0x4d334653 // "M3FS"

// imageVersion is bumped on format changes.
const imageVersion = 2

// MarshalImage serializes the filesystem. blockData returns the
// content of a used block (may be nil to dump metadata only; the
// bitmap still records the blocks as used).
func (fs *FsCore) MarshalImage(blockData func(block int) []byte) []byte {
	var o kif.OStream
	o.U64(imageMagic).U64(imageVersion)
	o.U64(uint64(fs.BlockSize)).U64(uint64(fs.TotalBlocks))
	o.U64(fs.nextIno).U64(fs.root.Ino)

	// Inode table, sorted for a deterministic image.
	inos := make([]uint64, 0, len(fs.inodes))
	for ino := range fs.inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	o.U64(uint64(len(inos)))
	for _, n := range inos {
		ino := fs.inodes[n]
		o.U64(ino.Ino)
		if ino.Dir {
			o.U64(1)
		} else {
			o.U64(0)
		}
		o.U64(uint64(ino.Nlink))
		o.U64(uint64(ino.Size))
		o.U64(uint64(len(ino.Extents)))
		for _, e := range ino.Extents {
			o.U64(uint64(e.Start)).U64(uint64(e.Blocks))
		}
	}

	// Directory table, by directory number, each directory's entries
	// in the name order it keeps them in.
	nDents := 0
	for _, n := range inos {
		nDents += len(fs.inodes[n].entries)
	}
	o.U64(uint64(nDents))
	for _, n := range inos {
		for _, e := range fs.inodes[n].entries {
			o.U64(n).Str(e.name).U64(e.ino.Ino)
		}
	}

	// Data blocks.
	var used []int
	for b := 0; b < fs.TotalBlocks; b++ {
		if fs.isUsed(b) {
			used = append(used, b)
		}
	}
	o.U64(uint64(len(used)))
	for _, b := range used {
		o.U64(uint64(b))
		if blockData != nil {
			o.Blob(blockData(b))
		} else {
			o.Blob(nil)
		}
	}
	return o.Bytes()
}

// superblock is an image's header.
type superblock struct {
	blockSize, totalBlocks int
	nextIno, rootIno       uint64
}

// readSuperblock parses and sanity-checks an image's header.
func readSuperblock(is *kif.IStream) (superblock, error) {
	if is.U64() != imageMagic {
		return superblock{}, fmt.Errorf("m3fs: not an m3fs image")
	}
	if v := is.U64(); v != imageVersion {
		return superblock{}, fmt.Errorf("m3fs: unsupported image version %d", v)
	}
	sb := superblock{blockSize: int(is.U64()), totalBlocks: int(is.U64())}
	sb.nextIno, sb.rootIno = is.U64(), is.U64()
	if is.Err() != nil || sb.blockSize <= 0 || sb.blockSize > 1<<20 ||
		sb.totalBlocks <= 0 || sb.totalBlocks > 1<<28 {
		return superblock{}, fmt.Errorf("m3fs: corrupt superblock")
	}
	return sb, nil
}

// UnmarshalImage reconstructs a filesystem from an image. blockSink
// (may be nil) receives the content of each used data block, e.g. to
// write it into the DRAM region backing the mounted filesystem.
func UnmarshalImage(data []byte, blockSink func(block int, content []byte) error) (*FsCore, error) {
	is := kif.NewIStream(data)
	sb, err := readSuperblock(&is)
	if err != nil {
		return nil, err
	}
	blockSize, totalBlocks := sb.blockSize, sb.totalBlocks
	fs := &FsCore{
		BlockSize:   blockSize,
		TotalBlocks: totalBlocks,
		inodes:      make(map[uint64]*Inode),
		bitmap:      make([]uint64, bitmapWords(totalBlocks)),
	}

	nInodes := int(is.U64())
	if is.Err() != nil || nInodes < 0 || nInodes > totalBlocks+1 {
		return nil, fmt.Errorf("m3fs: corrupt inode count")
	}
	for i := 0; i < nInodes; i++ {
		ino := &Inode{Ino: is.U64(), Dir: is.U64() != 0}
		ino.Nlink = int(is.U64())
		ino.Size = int64(is.U64())
		nExt := int(is.U64())
		if is.Err() != nil || nExt < 0 || nExt > totalBlocks {
			return nil, fmt.Errorf("m3fs: corrupt extent count for inode %d", ino.Ino)
		}
		for e := 0; e < nExt; e++ {
			ext := Extent{Start: int(is.U64()), Blocks: int(is.U64())}
			if ext.Start < 0 || ext.Blocks <= 0 || ext.Start+ext.Blocks > totalBlocks {
				return nil, fmt.Errorf("m3fs: inode %d extent out of bounds", ino.Ino)
			}
			ino.Extents = append(ino.Extents, ext)
			ino.AllocBlocks += ext.Blocks
			for b := ext.Start; b < ext.Start+ext.Blocks; b++ {
				if fs.isUsed(b) {
					return nil, fmt.Errorf("m3fs: block %d doubly allocated in image", b)
				}
			}
			fs.used += fs.markRange(ext.Start, ext.Blocks, true)
		}
		if _, dup := fs.inodes[ino.Ino]; dup {
			return nil, fmt.Errorf("m3fs: duplicate inode %d", ino.Ino)
		}
		fs.inodes[ino.Ino] = ino
	}
	fs.nextIno = sb.nextIno
	fs.root = fs.inodes[sb.rootIno]
	if fs.root == nil || !fs.root.Dir {
		return nil, fmt.Errorf("m3fs: image has no root directory")
	}

	nDents := int(is.U64())
	if is.Err() != nil || nDents < 0 || nDents > nInodes*1024 {
		return nil, fmt.Errorf("m3fs: corrupt directory table")
	}
	for i := 0; i < nDents; i++ {
		dirIno := is.U64()
		name := is.StrView() // insert copies it
		child := fs.inodes[is.U64()]
		dir := fs.inodes[dirIno]
		if is.Err() != nil || dir == nil || !dir.Dir || child == nil || name == "" {
			return nil, fmt.Errorf("m3fs: corrupt directory entry %d", i)
		}
		idx, exists := dir.find(name)
		if exists {
			return nil, fmt.Errorf("m3fs: directory entry %d repeats a name", i)
		}
		dir.insert(idx, name, child)
	}

	nBlocks := int(is.U64())
	if is.Err() != nil || nBlocks < 0 || nBlocks > totalBlocks {
		return nil, fmt.Errorf("m3fs: corrupt data block count")
	}
	for i := 0; i < nBlocks; i++ {
		b := int(is.U64())
		content := is.Blob()
		if is.Err() != nil || b < 0 || b >= totalBlocks || len(content) > blockSize {
			return nil, fmt.Errorf("m3fs: corrupt data block record %d", i)
		}
		if blockSink != nil && len(content) > 0 {
			if err := blockSink(b, content); err != nil {
				return nil, err
			}
		}
	}
	if err := fs.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("m3fs: image fails fsck: %w", err)
	}
	return fs, nil
}

// DumpImage serializes the running service's filesystem including file
// contents, read through the service's memory gate (timed DTU
// transfers, like writing the image out to storage).
func (s *Service) DumpImage() ([]byte, error) {
	var rerr error
	img := s.fs.MarshalImage(func(block int) []byte {
		buf := make([]byte, s.fs.BlockSize)
		if err := s.mem.Read(buf, block*s.fs.BlockSize); err != nil && rerr == nil {
			rerr = err
		}
		return buf
	})
	return img, rerr
}

// loadImage replaces the service's filesystem with the image's. On a
// fresh region it also writes the data blocks into DRAM (the paper:
// "m3fs would first load the file into DRAM, i.e., into the buffer
// cache"). A restarted journaled incarnation passes fresh=false: its
// stable region already holds the data, including every write clients
// made after boot, so only the metadata is rebuilt.
func (s *Service) loadImage(img []byte, fresh bool) error {
	// Check the geometry before anything is written, so a mismatched
	// image leaves the region untouched.
	is := kif.NewIStream(img)
	sb, err := readSuperblock(&is)
	if err != nil {
		return err
	}
	if sb.blockSize != s.fs.BlockSize || sb.totalBlocks > s.fs.TotalBlocks {
		return fmt.Errorf("m3fs: image geometry %d/%d does not fit region %d/%d",
			sb.blockSize, sb.totalBlocks, s.fs.BlockSize, s.fs.TotalBlocks)
	}
	var sink func(block int, content []byte) error
	if fresh {
		sink = func(block int, content []byte) error {
			return s.mem.Write(content, block*s.fs.BlockSize)
		}
	}
	fs, err := UnmarshalImage(img, sink)
	if err != nil {
		return err
	}
	// Adopt the image's metadata but keep the region's full capacity.
	fs.grow(s.fs.TotalBlocks)
	s.fs = fs
	return nil
}
