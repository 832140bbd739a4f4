package m3fs

// Request-gate opcodes (client → m3fs, no kernel involvement). Every
// request message is framed as
//
//	op u64 | key u64 | seq u64 | op-specific arguments
//
// where (key, seq) is the client's idempotency token: key identifies
// the client on the whole platform (its VPE's id and a per-program
// client index, m3.Env.NewClientKey), seq is a per-client monotonic
// counter for mutating operations, and seq 0 means "no token" (reads
// and naturally idempotent operations). The service keeps one replay
// slot per key — across restarts, via the journal — holding the latest
// applied seq and its outcome, so a retransmitted mutation is answered
// with its original outcome instead of being applied twice, and no
// token at or below the latest seq is ever applied again
// (docs/RECOVERY.md).
const (
	fsOpen uint64 = iota + 1
	fsClose
	fsStat
	fsFStat
	fsMkdir
	fsUnlink
	fsReadDir
	// fsSync flushes the filesystem to a persistent image (§4.5.8:
	// the layout is "suitable for persistent storage").
	fsSync
	// fsLink creates a hard link; fsRename moves an entry (§4.5.8
	// lists link among m3fs's meta-data operations).
	fsLink
	fsRename
)

// Session-exchange opcodes (client → kernel → m3fs, moving memory
// capabilities).
const (
	// xLocate asks for the extent covering a file offset; the client
	// obtains a memory capability for it.
	xLocate uint64 = iota + 20
	// xAppend reserves new blocks at the end of the file and returns a
	// memory capability for the new extent. Its arguments carry an
	// idempotency token (key, seq) right after the opcode, like the
	// request-gate framing: a deduplicated retry must be answered with
	// the original extent, or the client's file offsets diverge.
	xAppend
	// xGetSGate hands the client a send gate to the request gate,
	// labelled with the session identifier.
	xGetSGate
)

// ServiceName is the name m3fs registers at the kernel.
const ServiceName = "m3fs"

// DefaultAppendBlocks is how many blocks a write appends at once to
// limit fragmentation; the paper's sweet spot (§5.5) is 256.
const DefaultAppendBlocks = 256

// Open flag bits on the wire (match m3.OpenFlags).
const (
	flagRead uint64 = 1 << iota
	flagWrite
	flagCreate
	flagTrunc
	flagAppend
)
