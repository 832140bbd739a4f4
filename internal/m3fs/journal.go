package m3fs

import (
	"fmt"

	"repro/internal/kif"
)

// The metadata journal is a write-ahead log of logical filesystem
// mutations, kept in the tail of the service's (stable) DRAM region so
// it survives a service crash. Layout:
//
//	header (24 bytes): magic u64 | version u64 | committedLen u64
//	records: committedLen bytes of length-delimited records
//
// Each record is a kif blob: u64 byte length, then a payload of
//
//	kind u64 | key u64 | seq u64 | kind-specific fields
//
// (key, seq) is the client's idempotency token (zero seq = none). A
// mutation is made durable in two DRAM writes: append the record at
// header+committedLen, then commit by rewriting the header with the
// grown committedLen. A crash between the two leaves the record
// outside the committed range, where replay never looks — so the
// journal is always a prefix of successfully applied mutations, and
// the client's retry of the uncommitted one lands on a service that
// has genuinely never seen it.
//
// Replay rebuilds the in-memory FsCore from the boot image (or an
// empty filesystem) by re-applying the committed records in order.
// Since it only ever reads the journal and reconstructs from scratch,
// replaying twice — e.g. after a crash during replay — is trivially
// idempotent: every replay starts from the same base and the same
// committed prefix. File *data* needs no journaling at all: clients
// write it via RDMA straight into the stable region, where it survives
// alongside the journal.
const (
	journalMagic   uint64 = 0x4d33464a4f520001 // "M3FJOR" v1 tag
	journalVersion uint64 = 1
	journalHdrSize        = 24

	// DefaultJournalSize is the journal area carved from the region
	// tail when Config.Journal is on and JournalSize is zero.
	DefaultJournalSize = 256 << 10
)

// Journal record kinds: one per logical mutation m3fs accepts.
// Exported so that offline tooling (cmd/m3fsck -selftest) and tests can
// synthesize journals without speaking the wire framing by hand.
const (
	JMkdir uint64 = iota + 1
	JCreate
	JTrunc
	JUnlink
	JLink
	JRename
	JAppend
)

// JRecord is one decoded journal record.
type JRecord struct {
	Kind     uint64
	Key, Seq uint64 // idempotency token (Seq 0 = none)

	// Payload fields (Path/Path2 for mkdir/create/unlink/link/rename,
	// Ino + Size/Blocks/NoMerge for trunc/append). Records are decoded
	// into fresh values by the m3fs service process (or offline m3fsck
	// tooling) and never escape to another goroutine.
	Path, Path2 string
	Ino         uint64
	Size        int64
	Blocks      int
	NoMerge     bool
}

// KindName returns the mnemonic of a record's kind, for human-facing
// journal listings (m3fsck).
func (r JRecord) KindName() string {
	switch r.Kind {
	case JMkdir:
		return "mkdir"
	case JCreate:
		return "create"
	case JTrunc:
		return "trunc"
	case JUnlink:
		return "unlink"
	case JLink:
		return "link"
	case JRename:
		return "rename"
	case JAppend:
		return "append"
	}
	return fmt.Sprintf("kind%d", r.Kind)
}

// token is the idempotency token of a client mutation: the client's
// key and its seq.
type token struct{ key, seq uint64 }

// outcome is what a retransmitted mutation must be answered with: the
// extent an append reserved (hasExt), or nothing beyond a bare OK.
type outcome struct {
	ext            Extent
	extOff, extLen int64
	hasExt         bool
}

// replaySlot is one client's entry in the dedup table: the seq of its
// latest applied tokened mutation and that mutation's outcome. A client
// waits for each mutation's reply before it sends the next, so only its
// latest token can come back as a retransmit (reply lost, or lost with
// the incarnation that sent it); a token at or below seq is never
// applied again.
type replaySlot struct {
	seq uint64
	out outcome
}

// replayTable maps a client key to its replay slot: one entry per
// client that ever applied a tokened mutation, however many it applied.
type replayTable map[uint64]replaySlot

// record notes that tok's mutation was applied with out.
func (t replayTable) record(tok token, out outcome) {
	if tok.seq != 0 {
		t[tok.key] = replaySlot{seq: tok.seq, out: out}
	}
}

// lookup reports whether tok's mutation was applied and, if tok is its
// client's latest, the outcome to answer it with (latest). An untokened
// request (seq 0: stat, open, readdir, the idempotent ops) never was.
func (t replayTable) lookup(tok token) (out outcome, latest, done bool) {
	if tok.seq == 0 {
		return outcome{}, false, false
	}
	slot, ok := t[tok.key]
	if !ok || tok.seq > slot.seq {
		return outcome{}, false, false
	}
	if tok.seq < slot.seq {
		return outcome{}, false, true
	}
	return slot.out, true, true
}

// appendRecord renders r in its on-DRAM framing into o, reset first,
// with p as scratch for the payload, and returns o's bytes: an owner
// that encodes one record at a time reuses both streams.
func appendRecord(o, p *kif.OStream, r JRecord) []byte {
	p.Reset().U64(r.Kind).U64(r.Key).U64(r.Seq)
	switch r.Kind {
	case JMkdir, JCreate, JUnlink:
		p.Str(r.Path)
	case JLink, JRename:
		p.Str(r.Path).Str(r.Path2)
	case JTrunc:
		p.U64(r.Ino).U64(uint64(r.Size))
	case JAppend:
		p.U64(r.Ino).U64(uint64(r.Blocks))
		if r.NoMerge {
			p.U64(1)
		} else {
			p.U64(0)
		}
	}
	return o.Reset().Blob(p.Bytes()).Bytes()
}

// encodeJournalHeader renders the header for a committed length into a
// fresh buffer.
func encodeJournalHeader(committed int) []byte {
	var o kif.OStream
	return appendJournalHeader(&o, committed)
}

// appendJournalHeader renders the header for a committed length into
// o, reset first, and returns o's bytes.
func appendJournalHeader(o *kif.OStream, committed int) []byte {
	return o.Reset().U64(journalMagic).U64(journalVersion).U64(uint64(committed)).Bytes()
}

// EncodeJournal renders records as a fully committed journal area —
// header plus framed records, committedLen covering all of them. It is
// the write-side inverse of DecodeJournal for tooling and tests; the
// live service never uses it (it appends and commits incrementally, see
// service.go).
func EncodeJournal(recs []JRecord) []byte {
	var o, p kif.OStream
	var body []byte
	for _, r := range recs {
		body = append(body, appendRecord(&o, &p, r)...)
	}
	return append(encodeJournalHeader(len(body)), body...)
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (JRecord, error) {
	is := kif.NewIStream(payload)
	r := JRecord{Kind: is.U64(), Key: is.U64(), Seq: is.U64()}
	switch r.Kind {
	case JMkdir, JCreate, JUnlink:
		r.Path = is.Str()
	case JLink, JRename:
		r.Path = is.Str()
		r.Path2 = is.Str()
	case JTrunc:
		r.Ino = is.U64()
		r.Size = int64(is.U64())
	case JAppend:
		r.Ino = is.U64()
		r.Blocks = int(is.U64())
		r.NoMerge = is.U64() != 0
	default:
		return JRecord{}, fmt.Errorf("m3fs: journal record kind %d unknown", r.Kind)
	}
	if err := is.Err(); err != nil {
		return JRecord{}, fmt.Errorf("m3fs: journal record truncated: %w", err)
	}
	return r, nil
}

// DecodeJournal parses a raw journal area (header plus record space)
// and returns the committed records. A zeroed or foreign-magic area
// decodes as an empty journal — that is what a freshly allocated
// region looks like on first boot. Structural damage (committed range
// beyond the area, truncated or unknown records) is an error; the
// function never panics on arbitrary input (fuzzed in
// journal_fuzz_test.go).
func DecodeJournal(area []byte) ([]JRecord, error) {
	if len(area) < journalHdrSize {
		return nil, fmt.Errorf("m3fs: journal area %d bytes, need at least %d", len(area), journalHdrSize)
	}
	hs := kif.NewIStream(area[:journalHdrSize])
	magic, version, clen := hs.U64(), hs.U64(), int(int64(hs.U64()))
	if magic != journalMagic {
		return nil, nil
	}
	if version != journalVersion {
		return nil, fmt.Errorf("m3fs: journal version %d, want %d", version, journalVersion)
	}
	if clen < 0 || journalHdrSize+clen > len(area) {
		return nil, fmt.Errorf("m3fs: journal commits %d bytes beyond its %d-byte area", clen, len(area))
	}
	var recs []JRecord
	body := area[journalHdrSize : journalHdrSize+clen]
	for pos := 0; pos < len(body); {
		is := kif.NewIStream(body[pos:])
		payload := is.Blob()
		if err := is.Err(); err != nil {
			return nil, fmt.Errorf("m3fs: journal record at %d truncated: %w", pos, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		pos += 8 + len(payload)
	}
	return recs, nil
}

// ReplayJournal re-applies recs, in order, to a filesystem freshly
// built from the boot base, and returns the rebuilt dedup table: per
// client key, the latest tokened record's seq and outcome (append
// results included), the slots the original incarnation held after
// these mutations. Records were only ever written for mutations that
// succeeded against the same base in the same order, so any
// application failure means the journal does not belong to this base —
// an error, not a tolerable skip.
func ReplayJournal(fs *FsCore, recs []JRecord) (replayTable, error) {
	applied := make(replayTable)
	for i, r := range recs {
		var entry outcome
		var err error
		switch r.Kind {
		case JMkdir:
			_, err = fs.Mkdir(r.Path)
		case JCreate:
			_, _, err = fs.Create(r.Path)
		case JUnlink:
			_, err = fs.Unlink(r.Path)
		case JLink:
			_, err = fs.Link(r.Path, r.Path2)
		case JRename:
			_, err = fs.Rename(r.Path, r.Path2)
		case JTrunc:
			ino := fs.Inode(r.Ino)
			if ino == nil {
				err = fmt.Errorf("inode %d not found", r.Ino)
				break
			}
			fs.Truncate(ino, r.Size)
		case JAppend:
			ino := fs.Inode(r.Ino)
			if ino == nil {
				err = fmt.Errorf("inode %d not found", r.Ino)
				break
			}
			var ext Extent
			ext, err = fs.Append(ino, r.Blocks, r.NoMerge)
			if err == nil {
				entry.ext = ext
				entry.extLen = int64(ext.Blocks) * int64(fs.BlockSize)
				entry.extOff = int64(ino.AllocBlocks-ext.Blocks) * int64(fs.BlockSize)
				entry.hasExt = true
			}
		default:
			err = fmt.Errorf("kind %d unknown", r.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("m3fs: journal replay of record %d (kind %d): %w", i, r.Kind, err)
		}
		applied.record(token{r.Key, r.Seq}, entry)
	}
	return applied, nil
}
