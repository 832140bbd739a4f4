package m3fs

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/obs"
)

// Bounded-recovery knobs. Recovery is armed only when fault injection
// arms a call deadline on the DTU; without one every wait is unbounded
// and none of these paths schedule events.
const (
	// maxMountAttempts bounds the boot race retry in Mount.
	maxMountAttempts = 100
	// maxCallAttempts bounds how often one logical operation is retried
	// across session re-establishments before giving up.
	maxCallAttempts = 4
	// maxRecoverAttempts bounds how long a client waits for a service
	// restart; with restarts disabled this degrades into a clean error
	// after maxRecoverAttempts*costRecoverRetry cycles of back-off.
	maxRecoverAttempts = 64
	// maxDirPrealloc bounds the entries ReadDir reserves room for up
	// front; a longer listing grows as it arrives.
	maxDirPrealloc = 4096
)

// Client is the libm3-side m3fs driver: it implements m3.FileSystem on
// top of a session with the service. Meta-data operations are messages
// to the service; data access goes through memory capabilities covering
// file extents, obtained once per extent and cached, so that the
// common-case read/write path involves only libm3 (§5.4).
//
// When fault injection arms a call deadline, the client additionally
// survives service crashes: every operation carries an idempotency
// token, every wait is bounded, and on a session-dead error the client
// re-opens the session against the restarted incarnation and replays
// the in-flight request with its original token (docs/RECOVERY.md).
type Client struct {
	env     *m3.Env
	service string
	sess    kif.CapSel
	sg      *m3.SendGate
	// out is the stream every request and exchange argument block is
	// marshalled into, reused across calls.
	out kif.OStream

	// key/seq form the idempotency tokens: key tells the client apart
	// from every other on the platform (m3.Env.NewClientKey), seq is a
	// monotonic counter for mutating operations.
	key uint64
	seq uint64
	// gen counts established sessions; files opened under an older gen
	// re-open themselves before their next operation.
	gen        uint64
	files      []*file
	recovering bool

	mSessionReopens *obs.Counter

	// AppendBlocks overrides the per-append preallocation (0 = server
	// default); NoMerge forces separate extents (Figure 4 experiment).
	AppendBlocks int
	NoMerge      bool

	// Recoveries counts successful session re-establishments (tests).
	Recoveries uint64
}

var _ m3.FileSystem = (*Client)(nil)

// Mount opens a session at the named m3fs service, retrying while the
// service has not registered yet (boot races) or is between
// incarnations, and obtains the send gate for requests.
func Mount(env *m3.Env, service string) (*Client, error) {
	if service == "" {
		service = ServiceName
	}
	c := &Client{env: env, service: service, key: env.NewClientKey()}
	if tr := env.Ctx.PE.Obs(); tr.On() {
		c.mSessionReopens = tr.Metrics().Counter(MSessionReopens, -1)
	}
	var lastErr error
	for attempt := 0; attempt < maxMountAttempts; attempt++ {
		sess, err := env.OpenSess(service, "")
		if err != nil {
			lastErr = fmt.Errorf("m3fs: open session: %w", err)
			// Not registered yet (boot race) or refused at the service
			// DTU's admission watermark: back off and retry, bounded by
			// the attempt budget.
			if errors.Is(err, kif.ErrNoSuchService) || errors.Is(err, kif.ErrOverload) {
				env.P().Sleep(costMountRetry)
				continue
			}
			return nil, lastErr
		}
		sgSel := env.AllocSel()
		var args kif.OStream
		args.U64(xGetSGate)
		if _, err := env.ExchangeSess(sess, true, sgSel, 1, args.Bytes()); err != nil {
			lastErr = fmt.Errorf("m3fs: obtain sgate: %w", err)
			if c.recoverable(err) || errors.Is(err, kif.ErrOverload) {
				env.P().Sleep(costMountRetry)
				continue
			}
			return nil, lastErr
		}
		c.sess = sess
		c.sg = env.SendGateAt(sgSel)
		return c, nil
	}
	return nil, lastErr
}

// ClientFromCaps wraps an already-delegated session and request gate
// (e.g. inherited from a parent VPE, like a forked child inheriting a
// mount).
func ClientFromCaps(env *m3.Env, sess, sgate kif.CapSel) *Client {
	return &Client{
		env:     env,
		service: ServiceName,
		key:     env.NewClientKey(),
		sess:    sess,
		sg:      env.SendGateAt(sgate),
	}
}

// SessSel returns the session capability selector (for delegation to
// children).
func (c *Client) SessSel() kif.CapSel { return c.sess }

// SGateSel returns the request-gate capability selector.
func (c *Client) SGateSel() kif.CapSel { return c.sg.Sel() }

// MountAt mounts a fresh client at prefix in the environment's VFS.
func MountAt(env *m3.Env, prefix, service string) (*Client, error) {
	c, err := Mount(env, service)
	if err != nil {
		return nil, err
	}
	if err := env.VFS.Mount(prefix, c); err != nil {
		return nil, err
	}
	return c, nil
}

// nextSeq mints a fresh idempotency token sequence number.
func (c *Client) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// recoverable reports whether err indicates a dead or superseded
// service incarnation worth a session re-establishment. Without a call
// budget armed by the fault plan nothing is: the errors below then
// signify real protocol violations that should surface.
// kif.ErrOverload is never recoverable: the service is healthy but
// full, and the refusal reaches the caller (docs/OVERLOAD.md).
func (c *Client) recoverable(err error) bool {
	if err == nil || c.env.DTU().CallDeadline() == 0 {
		return false
	}
	return errors.Is(err, kif.ErrTimeout) ||
		errors.Is(err, kif.ErrNoSuchService) ||
		errors.Is(err, kif.ErrNoSuchSession) ||
		errors.Is(err, kif.ErrNoSuchCap) ||
		errors.Is(err, kif.ErrVPEGone) ||
		errors.Is(err, dtu.ErrTimeout) ||
		errors.Is(err, dtu.ErrBadEndpoint)
}

// recover re-establishes the session after the service incarnation
// died: drop the stale send gate and extent capabilities, then retry
// open-session against the (possibly not yet restarted) service with
// bounded back-off. On success the session generation is bumped so open
// files re-open lazily.
func (c *Client) recover() error {
	if c.recovering {
		return errors.New("m3fs: recursive session recovery")
	}
	c.recovering = true
	defer func() { c.recovering = false }()
	c.sg.Drop()
	for _, f := range c.files {
		f.dropExtents()
	}
	lastErr := errors.New("m3fs: no recovery attempt made")
	for attempt := 0; attempt < maxRecoverAttempts; attempt++ {
		c.env.P().Sleep(costRecoverRetry)
		sess, err := c.env.OpenSess(c.service, "")
		if err != nil {
			lastErr = err
			continue
		}
		sgSel := c.env.AllocSel()
		var args kif.OStream
		args.U64(xGetSGate)
		if _, err := c.env.ExchangeSess(sess, true, sgSel, 1, args.Bytes()); err != nil {
			lastErr = err
			continue
		}
		c.sess = sess
		c.sg = c.env.SendGateAt(sgSel)
		c.gen++
		c.Recoveries++
		if tr := c.env.Ctx.PE.Obs(); tr.On() {
			c.mSessionReopens.Inc()
		}
		return nil
	}
	return fmt.Errorf("m3fs: session recovery failed: %w", lastErr)
}

// callOnce performs one request-gate call (bounded by the armed
// deadline) and returns the reply stream positioned after a successful
// error code. The stream decodes the send gate's reply buffer, so it
// is valid until the client's next call.
func (c *Client) callOnce(o *kif.OStream) (kif.IStream, error) {
	data, err := c.sg.Call(o.Bytes())
	if err != nil {
		return kif.IStream{}, err
	}
	is := kif.NewIStream(data)
	if e := is.ErrCode(); e != kif.OK {
		return kif.IStream{}, e
	}
	return is, nil
}

// call runs build and sends the result, transparently re-establishing
// the session and retrying on recoverable errors. The builder runs
// once per attempt so fd-bearing requests pick up post-recovery
// descriptors; idempotency tokens must be minted once by the caller
// and captured, so every retry replays the same logical operation.
func (c *Client) call(build func() (*kif.OStream, error)) (kif.IStream, error) {
	var lastErr error
	for attempt := 0; attempt < maxCallAttempts; attempt++ {
		o, err := build()
		if err == nil {
			var is kif.IStream
			is, err = c.callOnce(o)
			if err == nil {
				return is, nil
			}
		}
		lastErr = err
		if !c.recoverable(err) {
			return kif.IStream{}, err
		}
		if rerr := c.recover(); rerr != nil {
			return kif.IStream{}, rerr
		}
	}
	return kif.IStream{}, lastErr
}

func (c *Client) removeFile(f *file) {
	for i, g := range c.files {
		if g == f {
			c.files = append(c.files[:i], c.files[i+1:]...)
			return
		}
	}
}

// Open opens or creates the file at path.
func (c *Client) Open(path string, flags m3.OpenFlags) (m3.File, error) {
	var fd uint64
	var size, alloc int64
	is, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsOpen).U64(c.key).U64(0).Str(path).U64(wireFlags(flags))
		return o, nil
	})
	if err != nil {
		return nil, fmt.Errorf("m3fs: open %s: %w", path, err)
	}
	fd, size = is.U64(), int64(is.U64())
	_ = is.U64() // extent count (informational)
	alloc = int64(is.U64())
	f := &file{c: c, fd: fd, path: path, gen: c.gen, size: size, alloc: alloc, flags: flags}
	if flags&m3.OpenTrunc != 0 {
		f.alloc = 0
	}
	if flags&m3.OpenAppend != 0 {
		f.pos = size
	}
	c.files = append(c.files, f)
	return f, nil
}

// Stat returns metadata for path.
func (c *Client) Stat(path string) (m3.Stat, error) {
	is, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsStat).U64(c.key).U64(0).Str(path)
		return o, nil
	})
	if err != nil {
		return m3.Stat{}, fmt.Errorf("m3fs: stat %s: %w", path, err)
	}
	return decodeStat(&is), nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	key, seq := c.key, c.nextSeq()
	_, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsMkdir).U64(key).U64(seq).Str(path)
		return o, nil
	})
	if err != nil {
		return fmt.Errorf("m3fs: mkdir %s: %w", path, err)
	}
	return nil
}

// Unlink removes a file or empty directory.
func (c *Client) Unlink(path string) error {
	key, seq := c.key, c.nextSeq()
	_, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsUnlink).U64(key).U64(seq).Str(path)
		return o, nil
	})
	if err != nil {
		return fmt.Errorf("m3fs: unlink %s: %w", path, err)
	}
	return nil
}

// Link creates a hard link: a second name for the file at oldPath.
func (c *Client) Link(oldPath, newPath string) error {
	key, seq := c.key, c.nextSeq()
	_, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsLink).U64(key).U64(seq).Str(oldPath).Str(newPath)
		return o, nil
	})
	if err != nil {
		return fmt.Errorf("m3fs: link %s -> %s: %w", newPath, oldPath, err)
	}
	return nil
}

// Rename moves the entry at oldPath to newPath.
func (c *Client) Rename(oldPath, newPath string) error {
	key, seq := c.key, c.nextSeq()
	_, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsRename).U64(key).U64(seq).Str(oldPath).Str(newPath)
		return o, nil
	})
	if err != nil {
		return fmt.Errorf("m3fs: rename %s -> %s: %w", oldPath, newPath, err)
	}
	return nil
}

// Sync asks the service to flush the filesystem to its persistent
// image.
func (c *Client) Sync() error {
	_, err := c.call(func() (*kif.OStream, error) {
		o := c.out.Reset()
		o.U64(fsSync).U64(c.key).U64(0)
		return o, nil
	})
	if err != nil {
		return fmt.Errorf("m3fs: sync: %w", err)
	}
	return nil
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]m3.DirEntry, error) {
	var out []m3.DirEntry
	for idx := 0; ; {
		is, err := c.call(func() (*kif.OStream, error) {
			o := c.out.Reset()
			o.U64(fsReadDir).U64(c.key).U64(0).Str(path).U64(uint64(idx))
			return o, nil
		})
		if err != nil {
			return nil, fmt.Errorf("m3fs: readdir %s: %w", path, err)
		}
		total, n := int(is.U64()), int(is.U64())
		if out == nil && total > 0 {
			// The first chunk tells the size of the whole listing.
			out = make([]m3.DirEntry, 0, min(total, maxDirPrealloc))
		}
		for i := 0; i < n; i++ {
			name := is.Str()
			isDir := is.U64() != 0
			out = append(out, m3.DirEntry{Name: name, IsDir: isDir})
		}
		idx += n
		if idx >= total || n == 0 {
			return out, nil
		}
	}
}

func decodeStat(is *kif.IStream) m3.Stat {
	size := int64(is.U64())
	isDir := is.U64() != 0
	ino := is.U64()
	extents := int(is.U64())
	links := int(is.U64())
	return m3.Stat{Size: size, IsDir: isDir, Ino: ino, Extents: extents, Links: links}
}

func wireFlags(f m3.OpenFlags) uint64 {
	var w uint64
	if f&m3.OpenRead != 0 {
		w |= flagRead
	}
	if f&m3.OpenWrite != 0 {
		w |= flagWrite
	}
	if f&m3.OpenCreate != 0 {
		w |= flagCreate
	}
	if f&m3.OpenTrunc != 0 {
		w |= flagTrunc
	}
	if f&m3.OpenAppend != 0 {
		w |= flagAppend
	}
	return w
}

// cext is a cached extent: a memory gate covering file bytes
// [off, off+len).
type cext struct {
	off, len int64
	mg       *m3.MemGate
}

// file implements m3.File. The extent cache makes repeated reads,
// writes, and most seeks purely local (§4.5.8): only when the position
// leaves the obtained extents is m3fs contacted again.
type file struct {
	c     *Client
	fd    uint64
	path  string
	gen   uint64 // session generation the fd belongs to
	flags m3.OpenFlags
	pos   int64
	size  int64
	// alloc is the allocated (possibly preallocated) end of the file as
	// known locally; writes below it stay local.
	alloc   int64
	extents []cext
	closed  bool
}

// dropExtents retires every cached extent gate (session recovery: the
// capabilities died with the service incarnation).
func (f *file) dropExtents() {
	for i := range f.extents {
		f.extents[i].mg.Drop()
	}
	f.extents = nil
}

// ensureOpen re-opens the file against a new service incarnation when
// the session generation moved on. Create and truncate flags are
// stripped: the original open already journaled their effect, and a
// non-journaled restart losing the file should surface as a clean
// "no such file", not silently hand back an empty one. Position and
// size stay client-local — the client's view is authoritative for its
// own in-flight writes.
func (f *file) ensureOpen() error {
	c := f.c
	if f.gen == c.gen || f.closed {
		return nil
	}
	o := c.out.Reset()
	o.U64(fsOpen).U64(c.key).U64(0).Str(f.path).U64(wireFlags(f.flags &^ (m3.OpenCreate | m3.OpenTrunc)))
	is, err := c.callOnce(o)
	if err != nil {
		return err
	}
	f.fd = is.U64()
	_ = is.U64() // size: client-local view is authoritative
	_ = is.U64() // extent count
	f.alloc = int64(is.U64())
	f.gen = c.gen
	return nil
}

// findExtent returns the cached extent containing off.
func (f *file) findExtent(off int64) *cext {
	for i := range f.extents {
		e := &f.extents[i]
		if off >= e.off && off < e.off+e.len {
			return e
		}
	}
	return nil
}

// obtain runs a session exchange built by build (re-run per attempt so
// it sees post-recovery descriptors), parses the returned extent, and
// caches it. kif.ErrEndOfFile passes through untouched: it is the
// locate-miss signal, not a failure.
func (f *file) obtain(build func() []byte) (*cext, error) {
	c := f.c
	var lastErr error
	for attempt := 0; attempt < maxCallAttempts; attempt++ {
		err := f.ensureOpen()
		if err == nil {
			sel := c.env.AllocSel()
			var ret []byte
			ret, err = c.env.ExchangeSess(c.sess, true, sel, 1, build())
			if err == nil {
				ris := kif.NewIStream(ret)
				extOff, extLen := int64(ris.U64()), int64(ris.U64())
				e := cext{off: extOff, len: extLen, mg: c.env.MemGateAt(sel, int(extLen))}
				f.extents = append(f.extents, e)
				if extOff+extLen > f.alloc {
					f.alloc = extOff + extLen
				}
				return &f.extents[len(f.extents)-1], nil
			}
			if errors.Is(err, kif.ErrEndOfFile) {
				return nil, err
			}
		}
		lastErr = err
		if !c.recoverable(err) {
			return nil, err
		}
		if rerr := c.recover(); rerr != nil {
			return nil, rerr
		}
	}
	return nil, lastErr
}

// locate obtains the extent covering off from m3fs.
func (f *file) locate(off int64) (*cext, error) {
	return f.obtain(func() []byte {
		return f.c.out.Reset().U64(xLocate).U64(f.fd).U64(uint64(off)).Bytes()
	})
}

// appendExtent asks m3fs to reserve new blocks at the end of the file.
// The token is minted once: if the reply is lost to a crash, the retry
// presents the same token and the (restarted) service answers with the
// original extent.
func (f *file) appendExtent() (*cext, error) {
	c := f.c
	key, seq := c.key, c.nextSeq()
	return f.obtain(func() []byte {
		args := c.out.Reset().U64(xAppend).U64(key).U64(seq).U64(f.fd).U64(uint64(c.AppendBlocks))
		if c.NoMerge {
			args.U64(1)
		} else {
			args.U64(0)
		}
		return args.Bytes()
	})
}

// Read fills buf from the current position, returning io.EOF at end of
// file.
func (f *file) Read(buf []byte) (int, error) {
	env := f.c.env
	env.Ctx.Compute(m3.CostFileEnter)
	if f.closed {
		return 0, errors.New("m3fs: read on closed file")
	}
	if f.flags&m3.OpenRead == 0 {
		return 0, fmt.Errorf("m3fs: file not open for reading: %w", kif.ErrNoPerm)
	}
	for attempt := 0; ; attempt++ {
		if f.pos >= f.size {
			return 0, io.EOF
		}
		env.Ctx.Compute(m3.CostFileLocate)
		e := f.findExtent(f.pos)
		if e == nil {
			var err error
			if e, err = f.locate(f.pos); err != nil {
				return 0, err
			}
		}
		n := int64(len(buf))
		if rest := e.off + e.len - f.pos; n > rest {
			n = rest
		}
		if rest := f.size - f.pos; n > rest {
			n = rest
		}
		err := e.mg.Read(buf[:n], int(f.pos-e.off))
		if err == nil {
			f.pos += n
			return int(n), nil
		}
		if attempt >= maxCallAttempts || !f.c.recoverable(err) {
			return 0, err
		}
		// The extent capability died with the service incarnation;
		// recovery drops the cache and the next attempt re-locates.
		if rerr := f.c.recover(); rerr != nil {
			return 0, rerr
		}
	}
}

// Write stores buf at the current position, appending via preallocated
// extents as needed.
func (f *file) Write(buf []byte) (int, error) {
	env := f.c.env
	env.Ctx.Compute(m3.CostFileEnter)
	if f.closed {
		return 0, errors.New("m3fs: write on closed file")
	}
	if f.flags&m3.OpenWrite == 0 {
		return 0, errors.New("m3fs: file not open for writing")
	}
	total := 0
	attempts := 0
	for len(buf) > 0 {
		env.Ctx.Compute(m3.CostFileLocate)
		e := f.findExtent(f.pos)
		if e == nil {
			var err error
			if f.pos < f.size || f.pos < f.alloc {
				// Overwriting existing data (or preallocated space):
				// obtain the extent that already covers the position.
				e, err = f.locate(f.pos)
				if err != nil && errors.Is(err, kif.ErrEndOfFile) {
					e, err = f.appendExtent()
				}
			} else {
				e, err = f.appendExtent()
			}
			if err != nil {
				return total, err
			}
		}
		n := int64(len(buf))
		if rest := e.off + e.len - f.pos; n > rest {
			n = rest
		}
		if err := e.mg.Write(buf[:n], int(f.pos-e.off)); err != nil {
			if attempts >= maxCallAttempts || !f.c.recoverable(err) {
				return total, err
			}
			attempts++
			if rerr := f.c.recover(); rerr != nil {
				return total, rerr
			}
			continue // re-locate the extent against the new incarnation
		}
		f.pos += n
		if f.pos > f.size {
			f.size = f.pos
		}
		buf = buf[n:]
		total += int(n)
	}
	return total, nil
}

// Seek adjusts the position; it is purely local ("most seek operations
// can be done in libm3").
func (f *file) Seek(off int64, whence int) (int64, error) {
	f.c.env.Ctx.Compute(m3.CostFileLocate)
	switch whence {
	case io.SeekStart:
		f.pos = off
	case io.SeekCurrent:
		f.pos += off
	case io.SeekEnd:
		f.pos = f.size + off
	default:
		return 0, errors.New("m3fs: bad whence")
	}
	if f.pos < 0 {
		f.pos = 0
	}
	return f.pos, nil
}

// Close reports the final size so m3fs can truncate preallocation. The
// token makes a retried close a no-op on the service side.
func (f *file) Close() error {
	if f.closed {
		return nil
	}
	key, seq := f.c.key, f.c.nextSeq()
	_, err := f.c.call(func() (*kif.OStream, error) {
		if err := f.ensureOpen(); err != nil {
			return nil, err
		}
		o := f.c.out.Reset()
		o.U64(fsClose).U64(key).U64(seq).U64(f.fd).U64(uint64(f.size))
		return o, nil
	})
	f.closed = true
	f.c.removeFile(f)
	f.dropExtents()
	return err
}

// Stat queries the service about the open file.
func (f *file) Stat() (m3.Stat, error) {
	is, err := f.c.call(func() (*kif.OStream, error) {
		if err := f.ensureOpen(); err != nil {
			return nil, err
		}
		o := f.c.out.Reset()
		o.U64(fsFStat).U64(f.c.key).U64(0).U64(f.fd)
		return o, nil
	})
	if err != nil {
		return m3.Stat{}, err
	}
	return decodeStat(&is), nil
}
