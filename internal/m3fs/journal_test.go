package m3fs

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kif"
)

// sampleRecs is a journal of every record kind, in an order that
// replays cleanly onto an empty filesystem (inode 1 is /a/f, created by
// the JCreate record itself).
func sampleRecs() []JRecord {
	return []JRecord{
		{Kind: JMkdir, Key: 7, Seq: 1, Path: "/a"},
		{Kind: JCreate, Key: 7, Seq: 2, Path: "/a/f"},
		{Kind: JAppend, Key: 7, Seq: 3, Ino: 1, Blocks: 2},
		{Kind: JTrunc, Key: 7, Seq: 4, Ino: 1, Size: 1500},
		{Kind: JLink, Key: 7, Seq: 5, Path: "/a/f", Path2: "/a/g"},
		{Kind: JRename, Key: 7, Seq: 6, Path: "/a/g", Path2: "/a/h"},
		{Kind: JUnlink, Key: 7, Seq: 7, Path: "/a/h"},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	recs := sampleRecs()
	got, err := DecodeJournal(EncodeJournal(recs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestJournalEmptyAndForeignAreas(t *testing.T) {
	// A zeroed (freshly allocated) area and a foreign-magic area both
	// decode as an empty journal, not an error: that is what the first
	// boot of a journaled service sees.
	for _, area := range [][]byte{
		make([]byte, 4096),
		append(bytes.Repeat([]byte{0xAB}, journalHdrSize), make([]byte, 64)...),
	} {
		recs, err := DecodeJournal(area)
		if err != nil || recs != nil {
			t.Fatalf("DecodeJournal = %v, %v; want nil, nil", recs, err)
		}
	}
	// An area too small to hold even a header is structural damage.
	if _, err := DecodeJournal(make([]byte, journalHdrSize-1)); err == nil {
		t.Fatal("undersized area decoded without error")
	}
}

// TestJournalCrashBeforeAppend models a service that dies after
// applying a mutation in memory but before the journal append reached
// DRAM: the journal simply ends one record earlier, and replay rebuilds
// the pre-mutation state.
func TestJournalCrashBeforeAppend(t *testing.T) {
	recs := sampleRecs()
	fs := NewFsCore(1<<20, 1024)
	if _, err := ReplayJournal(fs, mustDecode(t, EncodeJournal(recs[:2]))); err != nil {
		t.Fatalf("replay: %v", err)
	}
	ino, _, err := fs.Lookup("/a/f")
	if err != nil || ino == nil {
		t.Fatalf("Lookup(/a/f) = %v, %v", ino, err)
	}
	if ino.AllocBlocks != 0 {
		t.Fatalf("file has %d blocks; the append was never journaled", ino.AllocBlocks)
	}
}

// TestJournalCrashBetweenAppendAndCommit writes a record into the area
// past the committed range — a crash between the append and the header
// rewrite — and checks replay never sees it. The client's retry of that
// mutation then lands on a service that has genuinely never applied it.
func TestJournalCrashBetweenAppendAndCommit(t *testing.T) {
	recs := sampleRecs()
	area := EncodeJournal(recs[:2])
	torn := append(area, encodeRecord(recs[2])...) // appended, never committed
	got := mustDecode(t, torn)
	if len(got) != 2 {
		t.Fatalf("decoded %d records from torn journal, want the 2 committed", len(got))
	}
	fs := NewFsCore(1<<20, 1024)
	if _, err := ReplayJournal(fs, got); err != nil {
		t.Fatalf("replay: %v", err)
	}
	ino, _, err := fs.Lookup("/a/f")
	if err != nil {
		t.Fatalf("Lookup(/a/f): %v", err)
	}
	if ino.AllocBlocks != 0 {
		t.Fatal("uncommitted append was replayed")
	}
}

// TestJournalDoubleReplayIdempotent replays the same journal twice —
// a crash during recovery forces a second replay — and checks both
// replays build bit-identical filesystems from the same base, and the
// same dedup table: the one client's slot at its latest seq.
func TestJournalDoubleReplayIdempotent(t *testing.T) {
	recs := sampleRecs()
	var images [][]byte
	var tables []replayTable
	for i := 0; i < 2; i++ {
		fs := NewFsCore(1<<20, 1024)
		applied, err := ReplayJournal(fs, recs)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if err := fs.CheckInvariants(); err != nil {
			t.Fatalf("replay %d invariants: %v", i, err)
		}
		images = append(images, fs.MarshalImage(nil))
		tables = append(tables, applied)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("two replays of the same journal built different filesystems")
	}
	want := replayTable{7: {seq: 7}}
	if !reflect.DeepEqual(tables[0], want) || !reflect.DeepEqual(tables[1], want) {
		t.Fatalf("dedup tables %v and %v, want %v", tables[0], tables[1], want)
	}
}

// TestReplayTableOneSlotPerClient: replay keeps one slot per client
// key, holding the latest tokened record (an append's extent
// included), and the table answers the latest token with its outcome,
// an older one as applied with none, and a newer one as new.
func TestReplayTableOneSlotPerClient(t *testing.T) {
	recs := []JRecord{
		{Kind: JMkdir, Key: 1, Seq: 1, Path: "/a"},
		{Kind: JCreate, Path: "/a/f"}, // untokened: the open's create
		{Kind: JMkdir, Key: 2, Seq: 1, Path: "/b"},
		{Kind: JAppend, Key: 1, Seq: 2, Ino: 3, Blocks: 4},
		{Kind: JUnlink, Key: 2, Seq: 2, Path: "/b"},
	}
	fs := NewFsCore(1<<20, 1024)
	table, err := ReplayJournal(fs, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 2 {
		t.Fatalf("%d slots for 2 clients: %v", len(table), table)
	}
	ext := outcome{ext: Extent{Start: 0, Blocks: 4}, extOff: 0, extLen: 4096, hasExt: true}
	for _, tc := range []struct {
		tok          token
		out          outcome
		latest, done bool
	}{
		{token{1, 2}, ext, true, true},
		{token{1, 1}, outcome{}, false, true},
		{token{1, 3}, outcome{}, false, false},
		{token{2, 2}, outcome{}, true, true},
		{token{3, 1}, outcome{}, false, false},
		{token{1, 0}, outcome{}, false, false},
	} {
		out, latest, done := table.lookup(tc.tok)
		if out != tc.out || latest != tc.latest || done != tc.done {
			t.Errorf("lookup(%v) = %+v, %v, %v; want %+v, %v, %v", tc.tok, out, latest, done, tc.out, tc.latest, tc.done)
		}
	}
}

// TestJournalStructuralDamage covers the decode errors: a committed
// range overrunning the area, a truncated record, and an unknown kind.
func TestJournalStructuralDamage(t *testing.T) {
	recs := sampleRecs()
	clean := EncodeJournal(recs)

	overrun := append([]byte(nil), clean...)
	copy(overrun[:journalHdrSize], encodeJournalHeader(len(clean))) // commits past the end
	if _, err := DecodeJournal(overrun); err == nil {
		t.Fatal("overrunning committed range decoded without error")
	}

	truncated := append([]byte(nil), clean[:len(clean)-3]...)
	copy(truncated[:journalHdrSize], encodeJournalHeader(len(truncated)-journalHdrSize))
	if _, err := DecodeJournal(truncated); err == nil {
		t.Fatal("truncated record decoded without error")
	}

	unknown := EncodeJournal([]JRecord{{Kind: 99, Path: "/x"}})
	if _, err := DecodeJournal(unknown); err == nil {
		t.Fatal("unknown record kind decoded without error")
	}

	versioned := append([]byte(nil), clean...)
	versioned[8] = 2 // bump the little-endian version word
	if _, err := DecodeJournal(versioned); err == nil {
		t.Fatal("future journal version decoded without error")
	}
}

// TestJournalReplayRejectsForeignJournal checks that a journal whose
// records do not apply to the given base (here: an append to an inode
// the base never allocated) is an error, not a silent skip.
func TestJournalReplayRejectsForeignJournal(t *testing.T) {
	fs := NewFsCore(1<<20, 1024)
	_, err := ReplayJournal(fs, []JRecord{{Kind: JAppend, Ino: 42, Blocks: 1}})
	if err == nil {
		t.Fatal("append to a nonexistent inode replayed without error")
	}
}

// encodeRecord renders one record in its on-DRAM framing into a fresh
// buffer.
func encodeRecord(r JRecord) []byte {
	var o, p kif.OStream
	return appendRecord(&o, &p, r)
}

func mustDecode(t *testing.T, area []byte) []JRecord {
	t.Helper()
	recs, err := DecodeJournal(area)
	if err != nil {
		t.Fatalf("DecodeJournal: %v", err)
	}
	return recs
}
