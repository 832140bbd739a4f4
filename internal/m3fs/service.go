package m3fs

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// Metric names registered with the obs registry (docs/OBSERVABILITY.md).
const (
	// MJournalAppends counts committed journal records.
	MJournalAppends = "m3fs_journal_appends_total"
	// MSessionReopens counts client-side session re-establishments
	// after a service restart.
	MSessionReopens = "m3fs_session_reopens_total"
)

// Config parameterizes the m3fs service.
type Config struct {
	// RegionSize is the DRAM region backing the filesystem (default 32 MiB).
	RegionSize int
	// BlockSize (default 1 KiB, the paper's benchmark configuration).
	BlockSize int
	// AppendBlocks is the per-append preallocation (default 256).
	AppendBlocks int
	// Image, when set, is a filesystem image the service loads into
	// its DRAM region at start (boot from persistent storage).
	Image []byte
	// Journal enables the metadata write-ahead journal in the tail of
	// the region: the region is then requested as supervisor-stable
	// memory, and a restarted incarnation rebuilds the filesystem from
	// Image plus the committed journal records (docs/RECOVERY.md).
	Journal bool
	// JournalSize is the journal area carved from the region tail
	// (default DefaultJournalSize).
	JournalSize int
}

func (c *Config) defaults() {
	if c.RegionSize == 0 {
		c.RegionSize = 32 << 20
	}
	if c.BlockSize == 0 {
		c.BlockSize = 1024
	}
	if c.AppendBlocks == 0 {
		c.AppendBlocks = DefaultAppendBlocks
	}
	if c.Journal && c.JournalSize == 0 {
		c.JournalSize = DefaultJournalSize
	}
}

// session is the per-client service state.
type session struct {
	ident  uint64
	files  map[uint64]openFile
	nextFD uint64
}

type openFile struct {
	ino      *Inode
	writable bool
}

// Service is the m3fs server state, owned by the service program.
type Service struct {
	cfg  Config
	env  *m3.Env
	fs   *FsCore
	mem  *m3.MemGate // DRAM region backing the filesystem
	ctrl *m3.RecvGate
	reqs *m3.RecvGate

	sessions  map[uint64]*session
	nextIdent uint64

	// out is the stream every reply is marshalled into, reused across
	// requests: the service serves one message at a time. jrec and
	// jscratch hold the journal record (and its payload, then the
	// header) being committed, xret an exchange's return arguments.
	out, jrec, jscratch, xret kif.OStream

	// applied is the dedup table, one replay slot per client key
	// (lookup only, so it stays off m3vet's nondeterminism radar); with
	// the journal on it is rebuilt across restarts by replay.
	applied replayTable
	// jbase/jsize locate the journal area inside the region (jsize 0 =
	// journaling off); jcommitted is the committed record bytes.
	jbase, jsize, jcommitted int

	// Stats for the evaluation.
	Requests  uint64
	Exchanges uint64
	// RepliesLost counts replies abandoned because the client became
	// unreachable (fault injection).
	RepliesLost uint64
	// Recovered reports that Start found a committed journal from an
	// earlier incarnation; ReplayedRecords counts its records.
	Recovered       bool
	ReplayedRecords int
	// Deduped counts retransmitted mutations answered from the dedup
	// table instead of being re-executed.
	Deduped uint64

	mJournalAppends *obs.Counter

	// SyncedImage holds the image written by the last sync request:
	// the stand-in for the persistent storage device the prototype
	// platform lacks.
	SyncedImage []byte
}

// Program returns the m3fs service program for kern.StartInit. The
// ready callback (may be nil) fires once the service is registered.
func Program(kern *core.Kernel, cfg Config, ready func(*Service)) core.Program {
	return func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		svc, err := Start(env, cfg)
		if err != nil {
			if errors.Is(err, kif.ErrTimeout) {
				// Under fault injection the service may fail to reach
				// the kernel during startup; that is a dead service,
				// not a broken simulation.
				env.Exit(1)
				return
			}
			panic(fmt.Sprintf("m3fs: start failed: %v", err))
		}
		if ready != nil {
			ready(svc)
		}
		svc.Serve()
	}
}

// Start allocates the backing region, formats the filesystem (or
// rebuilds it from the journal left by a previous incarnation), and
// registers the service at the kernel.
func Start(env *m3.Env, cfg Config) (*Service, error) {
	cfg.defaults()
	s := &Service{
		cfg:      cfg,
		env:      env,
		sessions: make(map[uint64]*session),
		applied:  make(replayTable),
	}
	if tr := env.Ctx.PE.Obs(); tr.On() {
		s.mJournalAppends = tr.Metrics().Counter(MJournalAppends, -1)
	}
	fsBytes := cfg.RegionSize
	var err error
	if cfg.Journal {
		if cfg.JournalSize < journalHdrSize || cfg.JournalSize >= cfg.RegionSize {
			return nil, fmt.Errorf("m3fs: journal size %d does not fit region %d", cfg.JournalSize, cfg.RegionSize)
		}
		fsBytes = cfg.RegionSize - cfg.JournalSize
		// A journaled region must keep its address (and contents)
		// across incarnations, or the journal would vanish with the
		// crash it exists to survive.
		s.mem, err = env.ReqMemStable(cfg.RegionSize, dtu.PermRW)
	} else {
		s.mem, err = env.ReqMem(cfg.RegionSize, dtu.PermRW)
	}
	if err != nil {
		return nil, fmt.Errorf("m3fs: region: %w", err)
	}
	s.fs = NewFsCore(fsBytes, cfg.BlockSize)
	s.ctrl, err = env.NewRecvGate(256, 8)
	if err != nil {
		return nil, fmt.Errorf("m3fs: ctrl gate: %w", err)
	}
	// The request ringbuffer bounds the number of concurrently served
	// clients: every session activation gets one credit, and the
	// receiver must never hand out more credits than it has buffer
	// space (§4.4.3).
	s.reqs, err = env.NewRecvGate(448, 48)
	if err != nil {
		return nil, fmt.Errorf("m3fs: request gate: %w", err)
	}
	// A valid journal header means an earlier incarnation ran on this
	// stable region: its data blocks are live, so the image contributes
	// only the base metadata the journal replays onto.
	var jlen int
	recovered := false
	if cfg.Journal {
		if jlen, recovered, err = s.readJournalHeader(); err != nil {
			return nil, err
		}
	}
	if cfg.Image != nil {
		if err := s.loadImage(cfg.Image, !recovered); err != nil {
			return nil, err
		}
	}
	if cfg.Journal {
		if err := s.initJournal(jlen, recovered); err != nil {
			return nil, err
		}
	}
	srvSel := env.AllocSel()
	var o kif.OStream
	o.Op(kif.SysCreateSrv).Sel(srvSel).Sel(s.ctrl.Sel()).Str(ServiceName)
	if _, err := env.Syscall(&o); err != nil {
		return nil, fmt.Errorf("m3fs: createsrv: %w", err)
	}
	return s, nil
}

// FS exposes the filesystem core (tests, fsck).
func (s *Service) FS() *FsCore { return s.fs }

// readJournalHeader locates the journal area and reads its header. A
// valid header (found) means a previous incarnation ran here; clen is
// its committed record length.
func (s *Service) readJournalHeader() (clen int, found bool, err error) {
	s.jbase = s.cfg.RegionSize - s.cfg.JournalSize
	s.jsize = s.cfg.JournalSize
	hdr := make([]byte, journalHdrSize)
	if err := s.mem.Read(hdr, s.jbase); err != nil {
		return 0, false, fmt.Errorf("m3fs: journal header read: %w", err)
	}
	hs := kif.NewIStream(hdr)
	magic, _, clen := hs.U64(), hs.U64(), int(int64(hs.U64()))
	if magic != journalMagic {
		return 0, false, nil
	}
	if clen < 0 || journalHdrSize+clen > s.jsize {
		return 0, false, fmt.Errorf("m3fs: journal commits %d bytes beyond its %d-byte area", clen, s.jsize)
	}
	return clen, true, nil
}

// initJournal finishes journal start-up on the just-(re)built base
// filesystem. A found journal's committed records are replayed, which
// also rebuilds the idempotency map. Otherwise this is first boot, and
// a fresh empty header is committed.
func (s *Service) initJournal(clen int, found bool) error {
	if !found {
		s.jcommitted = 0
		if err := s.mem.Write(appendJournalHeader(&s.jscratch, 0), s.jbase); err != nil {
			return fmt.Errorf("m3fs: journal format: %w", err)
		}
		return nil
	}
	area := make([]byte, journalHdrSize+clen)
	if err := s.mem.Read(area, s.jbase); err != nil {
		return fmt.Errorf("m3fs: journal read: %w", err)
	}
	recs, err := DecodeJournal(area)
	if err != nil {
		return err
	}
	s.compute(costJournalReplay * sim.Time(len(recs)))
	applied, err := ReplayJournal(s.fs, recs)
	if err != nil {
		return err
	}
	s.applied = applied
	s.jcommitted = clen
	s.Recovered = true
	s.ReplayedRecords = len(recs)
	return nil
}

// journalFits reports whether a record of n more bytes can still be
// committed (always true with journaling off). Checked before applying
// a mutation, so the in-memory state never runs ahead of what the
// journal can make durable.
func (s *Service) journalFits(n int) bool {
	return s.jsize == 0 || journalHdrSize+s.jcommitted+n <= s.jsize
}

// record encodes r into the service's reused record stream; the bytes
// stay valid until the next record.
func (s *Service) record(r JRecord) []byte {
	return appendRecord(&s.jrec, &s.jscratch, r)
}

// commitMut makes an applied mutation durable and replayable: append
// the record, commit the header, and remember the token's outcome in
// its client's replay slot. A crash between the two DRAM writes leaves
// the record uncommitted — exactly matching the reply the client never
// got.
func (s *Service) commitMut(tok token, rec []byte, out outcome) {
	if s.jsize > 0 && rec != nil {
		s.compute(costJournalAppend)
		if tr := s.env.Ctx.PE.Obs(); tr.On() {
			s.mJournalAppends.Inc()
		}
		if err := s.mem.Write(rec, s.jbase+journalHdrSize+s.jcommitted); err != nil {
			panic(fmt.Sprintf("m3fs: journal append failed: %v", err))
		}
		s.jcommitted += len(rec)
		if err := s.mem.Write(appendJournalHeader(&s.jscratch, s.jcommitted), s.jbase); err != nil {
			panic(fmt.Sprintf("m3fs: journal commit failed: %v", err))
		}
	}
	s.applied.record(tok, out)
}

// Serve handles control (kernel) and request (client) messages forever.
// The server loop is a daemon: it parking idle at the end of a run is
// the expected state, not a deadlock.
func (s *Service) Serve() {
	s.env.P().SetDaemon()
	d := s.env.DTU()
	for {
		msg, ep := d.WaitMsg(s.env.P(), s.ctrl.EP(), s.reqs.EP())
		switch ep {
		case s.ctrl.EP():
			s.handleCtrl(msg)
		case s.reqs.EP():
			s.handleRequest(msg)
		}
	}
}

// handleCtrl processes the kernel's service protocol: session opens and
// capability exchanges.
func (s *Service) handleCtrl(msg *dtu.Message) {
	is := kif.NewIStream(msg.Data)
	op := kif.ServiceOp(is.U64())
	if tr := s.env.Ctx.PE.Obs(); tr.On() {
		tr.Emit(obs.Event{At: s.env.Ctx.Now(), PE: int32(s.env.Ctx.PE.Node),
			Layer: obs.LService, Kind: obs.EvSvcReq,
			Span: obs.SpanID(msg.Span), Arg0: uint64(op)})
	}
	switch op {
	case kif.ServOpen:
		_ = is.StrView() // session argument, unused by m3fs
		s.compute(costOpenSess)
		s.nextIdent++
		sess := &session{ident: s.nextIdent, files: make(map[uint64]openFile)}
		s.sessions[sess.ident] = sess
		o := s.out.Reset()
		o.Err(kif.OK).U64(sess.ident)
		s.reply(s.ctrl, msg, o)
	case kif.ServExchange:
		ident := is.U64()
		obtain := is.U64() != 0
		nCaps := is.U64()
		args := kif.NewIStream(is.Blob())
		s.compute(costExchangeBase)
		sess := s.sessions[ident]
		if sess == nil || !obtain || nCaps != 1 {
			s.replyXchgErr(msg, kif.ErrInvalidArgs)
			return
		}
		s.handleExchange(sess, &args, msg)
	case kif.ServCloseSess:
		ident := is.U64()
		delete(s.sessions, ident)
		o := s.out.Reset()
		o.Err(kif.OK)
		s.reply(s.ctrl, msg, o)
	default:
		s.replyXchgErr(msg, kif.ErrUnsupported)
	}
}

// handleExchange implements the capability-moving operations: locate,
// append, and get-sgate.
func (s *Service) handleExchange(sess *session, args *kif.IStream, msg *dtu.Message) {
	s.Exchanges++
	switch op := args.U64(); op {
	case xGetSGate:
		sgSel, err := s.reqs.NewSendGate(sess.ident, 1)
		if err != nil {
			s.replyXchgErr(msg, kif.ErrNoSpace)
			return
		}
		s.replyXchgCaps(msg, sgSel, nil)
	case xLocate:
		fd, off := args.U64(), int64(args.U64())
		of, ok := sess.files[fd]
		if !ok || args.Err() != nil {
			s.replyXchgErr(msg, kif.ErrInvalidArgs)
			return
		}
		s.compute(costLocate)
		ext, extOff, extLen, ok := s.fs.FindExtent(of.ino, off)
		if !ok {
			s.replyXchgErr(msg, kif.ErrEndOfFile)
			return
		}
		s.replyExtent(msg, of.writable, ext, extOff, extLen)
	case xAppend:
		key, seq := args.U64(), args.U64()
		fd, blocks, noMerge := args.U64(), int(args.U64()), args.U64() != 0
		if args.Err() != nil {
			s.replyXchgErr(msg, kif.ErrInvalidArgs)
			return
		}
		tok := token{key, seq}
		of, ok := sess.files[fd]
		if !ok || !of.writable {
			s.replyXchgErr(msg, kif.ErrNoPerm)
			return
		}
		if blocks <= 0 {
			blocks = s.cfg.AppendBlocks
		}
		if prev, latest, done := s.applied.lookup(tok); done {
			// Retransmit (reply lost, or lost with the incarnation that
			// sent it): hand back the original extent, never a new one,
			// or the client's file offsets diverge from the metadata. A
			// token its client has moved past (or one that named no
			// append) has no extent left to hand back.
			s.Deduped++
			s.compute(costLocate)
			if !latest || !prev.hasExt {
				s.replyXchgErr(msg, kif.ErrInvalidArgs)
				return
			}
			s.replyExtent(msg, true, prev.ext, prev.extOff, prev.extLen)
			return
		}
		rec := s.record(JRecord{Kind: JAppend, Key: key, Seq: seq, Ino: of.ino.Ino, Blocks: blocks, NoMerge: noMerge})
		if !s.journalFits(len(rec)) {
			s.replyXchgErr(msg, kif.ErrNoSpace)
			return
		}
		s.compute(costAppend)
		ext, err := s.fs.Append(of.ino, blocks, noMerge)
		if err != nil {
			s.replyXchgErr(msg, kif.ErrNoSpace)
			return
		}
		// The new extent begins at the current allocation end.
		extLen := int64(ext.Blocks) * int64(s.fs.BlockSize)
		extOff := int64(of.ino.AllocBlocks-ext.Blocks) * int64(s.fs.BlockSize)
		s.commitMut(tok, rec, outcome{ext: ext, extOff: extOff, extLen: extLen, hasExt: true})
		s.replyExtent(msg, true, ext, extOff, extLen)
	default:
		s.replyXchgErr(msg, kif.ErrUnsupported)
	}
}

// replyExtent derives a memory capability for ext, writable for a
// file opened for writing, and answers the exchange with it.
func (s *Service) replyExtent(msg *dtu.Message, writable bool, ext Extent, extOff, extLen int64) {
	perms := dtu.PermRead
	if writable {
		perms = dtu.PermRW
	}
	mg, err := s.mem.Derive(ext.Start*s.fs.BlockSize, int(extLen), perms)
	if err != nil {
		s.replyXchgErr(msg, kif.ErrNoSpace)
		return
	}
	ret := s.xret.Reset().U64(uint64(extOff)).U64(uint64(extLen))
	s.replyXchgCaps(msg, mg.Sel(), ret.Bytes())
}

// replyXchgCaps answers a ServExchange with one capability and
// optional return arguments.
func (s *Service) replyXchgCaps(msg *dtu.Message, capSel kif.CapSel, retArgs []byte) {
	o := s.out.Reset()
	o.Err(kif.OK).Sel(capSel).U64(1).Blob(retArgs)
	s.reply(s.ctrl, msg, o)
}

func (s *Service) replyXchgErr(msg *dtu.Message, e kif.Error) {
	o := s.out.Reset()
	o.Err(e).Sel(kif.InvalidSel).U64(0).Blob(nil)
	s.reply(s.ctrl, msg, o)
}

// handleRequest processes direct client requests (meta-data only; data
// moves through delegated memory capabilities). Paths are resolved from
// views of the message bytes (kif.IStream.StrView), valid until the
// reply recycles the message: FsCore copies a name only where it
// stores one, and a record is encoded before the reply. Every request
// is decoded whole before it acts, and one that ends early is refused
// (truncated).
func (s *Service) handleRequest(msg *dtu.Message) {
	s.Requests++
	sess := s.sessions[msg.Label]
	is := kif.NewIStream(msg.Data)
	op, key, seq := is.U64(), is.U64(), is.U64()
	if tr := s.env.Ctx.PE.Obs(); tr.On() {
		tr.Emit(obs.Event{At: s.env.Ctx.Now(), PE: int32(s.env.Ctx.PE.Node),
			Layer: obs.LService, Kind: obs.EvSvcReq,
			Span: obs.SpanID(msg.Span), Arg0: op, Arg1: msg.Label})
	}
	tok := token{key, seq}
	if sess == nil {
		s.replyErr(s.reqs, msg, kif.ErrNoSuchSession)
		return
	}
	if _, _, done := s.applied.lookup(tok); done {
		// Retransmit of an already applied mutation (all tokened
		// request-gate ops reply a bare OK, so the original outcome
		// needs no replaying beyond the status).
		s.Deduped++
		s.replyOK(msg)
		return
	}
	switch op {
	case fsOpen:
		s.reqOpen(sess, &is, msg)
	case fsClose:
		s.reqClose(sess, tok, &is, msg)
	case fsStat:
		path := is.StrView()
		if s.truncated(&is, msg) {
			return
		}
		ino, depth, e := s.fs.lookup(path)
		if e != kif.OK {
			s.replyErr(s.reqs, msg, kif.ErrNoSuchFile)
			return
		}
		s.compute(costStat + costPerComponent*sim.Time(depth))
		s.replyStat(msg, ino)
	case fsFStat:
		of, ok := sess.files[is.U64()]
		if s.truncated(&is, msg) {
			return
		}
		if !ok {
			s.replyErr(s.reqs, msg, kif.ErrInvalidArgs)
			return
		}
		s.compute(costStat)
		s.replyStat(msg, of.ino)
	case fsMkdir:
		path := is.StrView()
		if s.truncated(&is, msg) {
			return
		}
		rec := s.record(JRecord{Kind: JMkdir, Key: key, Seq: seq, Path: path})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		depth, err := s.fs.Mkdir(path)
		s.compute(costMkdir + costPerComponent*sim.Time(depth))
		if err != nil {
			s.replyErr(s.reqs, msg, errKind(err))
			return
		}
		s.commitMut(tok, rec, outcome{})
		s.replyOK(msg)
	case fsUnlink:
		path := is.StrView()
		if s.truncated(&is, msg) {
			return
		}
		rec := s.record(JRecord{Kind: JUnlink, Key: key, Seq: seq, Path: path})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		depth, err := s.fs.Unlink(path)
		s.compute(costUnlink + costPerComponent*sim.Time(depth))
		if err != nil {
			s.replyErr(s.reqs, msg, errKind(err))
			return
		}
		s.commitMut(tok, rec, outcome{})
		s.replyOK(msg)
	case fsReadDir:
		s.reqReadDir(&is, msg)
	case fsLink:
		oldPath, newPath := is.StrView(), is.StrView()
		if s.truncated(&is, msg) {
			return
		}
		rec := s.record(JRecord{Kind: JLink, Key: key, Seq: seq, Path: oldPath, Path2: newPath})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		depth, err := s.fs.Link(oldPath, newPath)
		s.compute(costLink + costPerComponent*sim.Time(depth))
		if err != nil {
			s.replyErr(s.reqs, msg, kif.ErrExists)
			return
		}
		s.commitMut(tok, rec, outcome{})
		s.replyOK(msg)
	case fsRename:
		oldPath, newPath := is.StrView(), is.StrView()
		if s.truncated(&is, msg) {
			return
		}
		rec := s.record(JRecord{Kind: JRename, Key: key, Seq: seq, Path: oldPath, Path2: newPath})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		depth, err := s.fs.Rename(oldPath, newPath)
		s.compute(costRename + costPerComponent*sim.Time(depth))
		if err != nil {
			s.replyErr(s.reqs, msg, kif.ErrExists)
			return
		}
		s.commitMut(tok, rec, outcome{})
		s.replyOK(msg)
	case fsSync:
		if s.truncated(&is, msg) {
			return
		}
		img, err := s.DumpImage()
		s.compute(costClose)
		if err != nil {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		s.SyncedImage = img
		s.replyOK(msg)
	default:
		s.replyErr(s.reqs, msg, kif.ErrUnsupported)
	}
}

// truncated refuses a request whose decoding failed, before the
// request acts: a missing path would otherwise decode as "" and
// resolve to the root.
func (s *Service) truncated(is *kif.IStream, msg *dtu.Message) bool {
	if is.Err() == nil {
		return false
	}
	s.replyErr(s.reqs, msg, kif.ErrInvalidArgs)
	return true
}

// reqOpen opens (and possibly creates or truncates) a file. Open is
// naturally idempotent — a retried create finds the file, a retried
// truncate re-truncates to the same zero — so it carries no token, but
// its side effects are still journaled. A directory opens read-only.
func (s *Service) reqOpen(sess *session, is *kif.IStream, msg *dtu.Message) {
	path, flags := is.StrView(), is.U64()
	if s.truncated(is, msg) {
		return
	}
	ino, depth, e := s.fs.lookup(path)
	s.compute(costOpen + costPerComponent*sim.Time(depth))
	if e == kif.OK && ino.Dir && flags&(flagWrite|flagTrunc) != 0 {
		s.replyErr(s.reqs, msg, kif.ErrIsDir)
		return
	}
	if e != kif.OK {
		if flags&flagCreate == 0 {
			s.replyErr(s.reqs, msg, kif.ErrNoSuchFile)
			return
		}
		rec := s.record(JRecord{Kind: JCreate, Path: path})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		var err error
		if ino, _, err = s.fs.Create(path); err != nil {
			s.replyErr(s.reqs, msg, kif.ErrNoSuchFile)
			return
		}
		s.commitMut(token{}, rec, outcome{})
	} else if flags&flagTrunc != 0 {
		rec := s.record(JRecord{Kind: JTrunc, Ino: ino.Ino})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		s.fs.Truncate(ino, 0)
		s.commitMut(token{}, rec, outcome{})
	}
	sess.nextFD++
	fd := sess.nextFD
	sess.files[fd] = openFile{ino: ino, writable: flags&flagWrite != 0}
	o := s.out.Reset()
	// The reply carries size AND allocated bytes, so the client knows
	// which positions are covered by existing extents (append into a
	// partially used last block locates instead of allocating).
	o.Err(kif.OK).U64(fd).U64(uint64(ino.Size)).U64(uint64(len(ino.Extents)))
	o.U64(uint64(ino.AllocBlocks * s.fs.BlockSize))
	s.reply(s.reqs, msg, o)
}

func (s *Service) reqClose(sess *session, tok token, is *kif.IStream, msg *dtu.Message) {
	fd, size := is.U64(), int64(is.U64())
	if s.truncated(is, msg) {
		return
	}
	of, ok := sess.files[fd]
	if !ok {
		s.replyErr(s.reqs, msg, kif.ErrInvalidArgs)
		return
	}
	s.compute(costClose)
	if of.writable {
		rec := s.record(JRecord{Kind: JTrunc, Ino: of.ino.Ino, Size: size})
		if !s.journalFits(len(rec)) {
			s.replyErr(s.reqs, msg, kif.ErrNoSpace)
			return
		}
		s.fs.Truncate(of.ino, size)
		s.commitMut(tok, rec, outcome{})
	} else {
		s.commitMut(tok, nil, outcome{})
	}
	delete(sess.files, fd)
	s.replyOK(msg)
}

// reqReadDir returns the directory's entries in chunks, in name order,
// starting at index (FsCore.listChunk).
func (s *Service) reqReadDir(is *kif.IStream, msg *dtu.Message) {
	path, idx := is.StrView(), is.U64()
	if s.truncated(is, msg) {
		return
	}
	o := s.out.Reset()
	o.Err(kif.OK)
	if e := s.fs.listChunk(o, path, idx); e != kif.OK {
		s.replyErr(s.reqs, msg, kif.ErrNoSuchFile)
		return
	}
	s.compute(costReadDir)
	s.reply(s.reqs, msg, o)
}

func (s *Service) replyStat(msg *dtu.Message, ino *Inode) {
	o := s.out.Reset()
	o.Err(kif.OK).U64(uint64(ino.Size))
	if ino.Dir {
		o.U64(1)
	} else {
		o.U64(0)
	}
	o.U64(ino.Ino).U64(uint64(len(ino.Extents))).U64(uint64(ino.Nlink))
	s.reply(s.reqs, msg, o)
}

func (s *Service) replyOK(msg *dtu.Message) {
	o := s.out.Reset()
	o.Err(kif.OK)
	s.reply(s.reqs, msg, o)
}

// errKind returns the kif error kind a namespace error of FsCore
// wraps.
func errKind(err error) kif.Error {
	var e kif.Error
	if errors.As(err, &e) {
		return e
	}
	return kif.ErrInvalidArgs
}

func (s *Service) replyErr(rg *m3.RecvGate, msg *dtu.Message, e kif.Error) {
	o := s.out.Reset()
	o.Err(e)
	s.reply(rg, msg, o)
}

func (s *Service) reply(rg *m3.RecvGate, msg *dtu.Message, o *kif.OStream) {
	if err := rg.Reply(msg, o.Bytes()); err != nil {
		if errors.Is(err, dtu.ErrTimeout) {
			// The client became unreachable (fault injection); the
			// service must outlive its clients.
			s.RepliesLost++
			return
		}
		panic(fmt.Sprintf("m3fs: reply failed: %v", err))
	}
}

func (s *Service) compute(n sim.Time) { s.env.Ctx.Compute(n) }

// SessionCount returns the number of live sessions (tests).
func (s *Service) SessionCount() int { return len(s.sessions) }
