package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// File is the subset of *os.File the journal writes through. Tests inject
// fault-wrapped implementations (see internal/chaos) to exercise partial
// writes and fsync failures; production passes *os.File straight through.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options tunes a journal. The zero value is production-ready.
type Options struct {
	// WrapFile intercepts the log file handle after open, the
	// fault-injection seam. nil means identity.
	WrapFile func(*os.File) File

	// Logf receives operational messages (tail truncation, compaction that
	// dropped records, write-error recovery). nil discards them.
	Logf func(format string, args ...any)

	// CompactEvery starts a timer that rewrites the log keeping only the
	// records Live returns. 0 disables the timer (Compact can still be
	// called directly).
	CompactEvery time.Duration
	Live         func() []Record

	// OnAppend and OnCompact are metrics hooks: frame bytes appended (or
	// the error that lost them), and records kept/dropped per compaction.
	OnAppend  func(bytes int, err error)
	OnCompact func(kept, dropped int, err error)
}

// maxBatch caps how many pending appends share one fsync.
const maxBatch = 64

// Journal is an open log. Append is safe for concurrent use; every call
// returns only after its record is fsync-durable (concurrent appends share
// a group commit, so the fsync cost amortizes under load).
type Journal struct {
	dir  string
	path string
	opts Options

	mu     sync.Mutex
	closed bool
	ch     chan request

	done     chan struct{} // committer exited
	stopTick chan struct{} // compaction timer shutdown

	// Committer-goroutine state: never touched outside it after Open.
	f       File
	size    int64 // durable byte offset (last successful batch end)
	records int   // records in the file
	broken  error // set when recovery after a write error failed
}

type request struct {
	frame []byte // append: one framed record
	// live is a compaction request's record source. It is a function, not a
	// snapshot: the committer calls it when the request is dequeued — after
	// every append acknowledged before this point has been committed — so an
	// acked record can never fall in the gap between snapshot and rewrite.
	live   func() []Record
	isComp bool
	done   chan error
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

const logName = "journal.log"

// Open opens (creating if needed) the journal in dir, replays every intact
// record, truncates any torn tail, and readies the log for appends. The
// returned records are in append order.
func Open(dir string, opts Options) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	recs, good, scanErr := scanRecords(data)
	if scanErr != nil {
		// Only a torn tail — a frame the crash cut short, which by
		// construction consumes every remaining byte — may be dropped:
		// everything before it was fsync-acknowledged and stays. Corruption
		// (CRC mismatch, absurd length, invalid JSON) means bytes that are
		// present but wrong; truncating there would silently delete every
		// acknowledged record after the damage, so Open refuses instead.
		if !errors.Is(scanErr, ErrTorn) {
			return nil, nil, fmt.Errorf("journal: %s holds %d corrupt or unreadable bytes at offset %d (%w); refusing to open rather than drop acknowledged history — repair or move the file aside", path, len(data)-good, good, scanErr)
		}
		opts.logf("journal: dropping %d-byte torn tail at offset %d: %v", len(data)-good, good, scanErr)
	}

	raw, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if good < len(data) {
		if err := raw.Truncate(int64(good)); err != nil {
			raw.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := raw.Seek(int64(good), 0); err != nil {
		raw.Close()
		return nil, nil, err
	}
	var f File = raw
	if opts.WrapFile != nil {
		f = opts.WrapFile(raw)
	}

	j := &Journal{
		dir:      dir,
		path:     path,
		opts:     opts,
		ch:       make(chan request, 256),
		done:     make(chan struct{}),
		stopTick: make(chan struct{}),
		f:        f,
		size:     int64(good),
		records:  len(recs),
	}
	go j.committer()
	if opts.CompactEvery > 0 && opts.Live != nil {
		go j.compactLoop()
	}
	return j, recs, nil
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Append makes rec durable. It blocks until the record (and every record
// batched with it) has been written and fsynced, or returns the write error
// that lost it — in which case the log is rolled back to its previous
// durable size and the record is NOT in the journal.
func (j *Journal) Append(rec Record) error {
	frame, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	req := request{frame: frame, done: make(chan error, 1)}
	if err := j.send(req); err != nil {
		return err
	}
	err = <-req.done
	if j.opts.OnAppend != nil {
		j.opts.OnAppend(len(frame), err)
	}
	return err
}

// Compact rewrites the log to contain exactly live, atomically (write tmp,
// fsync, rename). Records dropped relative to the current log are logged;
// an all-kept compaction is silent.
func (j *Journal) Compact(live []Record) error {
	return j.compactWith(func() []Record { return live })
}

// compactWith queues a compaction whose record set is resolved by the
// committer at dequeue time. The timer loop passes Options.Live directly so
// the snapshot always post-dates every acknowledged append.
func (j *Journal) compactWith(live func() []Record) error {
	req := request{live: live, isComp: true, done: make(chan error, 1)}
	if err := j.send(req); err != nil {
		return err
	}
	return <-req.done
}

func (j *Journal) send(req request) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.ch <- req
	return nil
}

// Close stops the committer after draining pending appends and closes the
// file. Further Appends return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.ch)
	j.mu.Unlock()
	close(j.stopTick)
	<-j.done
	return j.f.Close()
}

// committer is the single writer: it drains the request channel, batching
// consecutive appends under one fsync (group commit), and serializes
// compactions against appends.
func (j *Journal) committer() {
	defer close(j.done)
	for req := range j.ch {
		if req.isComp {
			req.done <- j.doCompact(req.live())
			continue
		}
		batch := []request{req}
	fill:
		for len(batch) < maxBatch {
			select {
			case next, ok := <-j.ch:
				if !ok {
					break fill
				}
				if next.isComp {
					// Commit the pending appends first: live() must see the
					// world after everything acknowledged ahead of it.
					j.commit(batch)
					batch = batch[:0]
					next.done <- j.doCompact(next.live())
					continue fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		if len(batch) > 0 {
			j.commit(batch)
		}
	}
}

// commit writes and fsyncs one batch. On any error the file is rolled back
// to the last durable size so a partial write can never leave a torn frame
// in the middle of the log; if even the rollback fails the journal is
// marked broken and every later append reports it.
func (j *Journal) commit(batch []request) {
	if j.broken != nil {
		for _, r := range batch {
			r.done <- j.broken
		}
		return
	}
	var werr error
	written := int64(0)
	for _, r := range batch {
		if werr != nil {
			break
		}
		n, err := j.f.Write(r.frame)
		written += int64(n)
		if err != nil {
			werr = err
		} else if n != len(r.frame) {
			werr = fmt.Errorf("journal: short write %d/%d", n, len(r.frame))
		}
	}
	if werr == nil {
		werr = j.f.Sync()
	}
	if werr == nil {
		j.size += written
		j.records += len(batch)
		for _, r := range batch {
			r.done <- nil
		}
		return
	}
	// Roll back: drop whatever this batch managed to write so the on-disk
	// log ends at the last acknowledged record.
	if terr := j.truncateTo(j.size); terr != nil {
		j.broken = fmt.Errorf("journal: unrecoverable after write error %v: %w", werr, terr)
		j.opts.logf("%v", j.broken)
	} else {
		j.opts.logf("journal: append failed, rolled back %d bytes: %v", written, werr)
	}
	for _, r := range batch {
		r.done <- werr
	}
}

func (j *Journal) truncateTo(size int64) error {
	if err := j.f.Truncate(size); err != nil {
		return err
	}
	// O_APPEND is deliberately not used (it would defeat rollback on some
	// platforms); the write offset must follow the truncation.
	if seeker, ok := j.f.(interface {
		Seek(offset int64, whence int) (int64, error)
	}); ok {
		if _, err := seeker.Seek(size, 0); err != nil {
			return err
		}
	}
	return nil
}

// doCompact rewrites the log as exactly live. The old file keeps serving
// until the renamed replacement is durable, so a crash mid-compaction
// leaves either the old or the new log, never a mix.
func (j *Journal) doCompact(live []Record) error {
	dropped := j.records - len(live)
	var buf []byte
	for _, rec := range live {
		frame, err := EncodeRecord(rec)
		if err != nil {
			if j.opts.OnCompact != nil {
				j.opts.OnCompact(0, 0, err)
			}
			return err
		}
		buf = append(buf, frame...)
	}
	tmp := j.path + ".tmp"
	err := func() error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, j.path)
	}()
	if err != nil {
		os.Remove(tmp)
		j.opts.logf("journal: compaction failed, keeping current log: %v", err)
		if j.opts.OnCompact != nil {
			j.opts.OnCompact(0, 0, err)
		}
		return err
	}
	syncDir(j.dir)

	// Swap the handle to the new file, positioned at its end.
	raw, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		j.broken = fmt.Errorf("journal: reopen after compaction: %w", err)
		return j.broken
	}
	if _, err := raw.Seek(int64(len(buf)), 0); err != nil {
		raw.Close()
		j.broken = err
		return err
	}
	j.f.Close()
	if j.opts.WrapFile != nil {
		j.f = j.opts.WrapFile(raw)
	} else {
		j.f = raw
	}
	j.size = int64(len(buf))
	j.records = len(live)
	j.broken = nil
	if dropped > 0 {
		j.opts.logf("journal: compacted, dropped %d records (%d live)", dropped, len(live))
	}
	if j.opts.OnCompact != nil {
		j.opts.OnCompact(len(live), dropped, nil)
	}
	return nil
}

// compactLoop drives timer compactions until Close.
func (j *Journal) compactLoop() {
	tick := time.NewTicker(j.opts.CompactEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = j.compactWith(j.opts.Live)
		case <-j.stopTick:
			return
		}
	}
}

// syncDir fsyncs a directory so a rename survives power loss. Failure is
// non-fatal (some filesystems refuse); the rename itself already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
