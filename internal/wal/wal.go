package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On-disk layout of a log directory:
//
//	wal-<index>.seg          append-only record segments, monotonic index
//	checkpoint-<seq>.ctc     atomic full-state snapshots (opaque payload)
//	*.tmp                    in-flight checkpoint writes (ignored, removed)
//
// Segment format: an 8-byte header "CTCWAL1\n", then records:
//
//	u32 LE  payload length
//	u32 LE  CRC-32C (Castagnoli) of the payload
//	payload:
//	    uvarint seq        (the publish epoch this batch folds into)
//	    uvarint count
//	    count × { 1 byte op, uvarint u, uvarint v }
//
// Records are seq-nondecreasing within and across segments. A record is
// durable once the segment has been fsynced past it; the writer batches
// many records between fsyncs (group commit — see Sync). On Open, the tail
// of the *last* segment is scanned and any torn record (short header, short
// payload, CRC mismatch) is truncated away: it can only be the suffix the
// crash cut off, because every earlier segment was fully synced before the
// next was created. A torn record in a non-final segment means real
// corruption and fails Open with ErrCorruptLog.
const (
	segmentHeader = "CTCWAL1\n"
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	ckptPrefix    = "checkpoint-"
	ckptSuffix    = ".ctc"
	tmpSuffix     = ".tmp"

	// maxRecordBytes bounds a single record; a length field beyond it is
	// treated as torn/corrupt rather than trusted as an allocation size.
	maxRecordBytes = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptLog reports damage that recovery must not silently repair: a
// bad record in the *interior* of the log (not the torn tail).
var ErrCorruptLog = errors.New("wal: corrupt log interior")

// Op is an update verb.
type Op byte

const (
	OpAdd    Op = 0
	OpRemove Op = 1
)

// Update is one logged edge mutation.
type Update struct {
	Op   Op
	U, V int
}

// Options tunes a Log. The zero value selects the defaults.
type Options struct {
	// FS is the filesystem; default OsFS{}.
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 4 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OsFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time view of the log, cheap enough for /stats.
type Stats struct {
	LastSeq       uint64        // highest appended (not necessarily synced) seq
	DurableSeq    uint64        // highest seq covered by a completed Sync
	CheckpointSeq uint64        // newest checkpoint, 0 if none
	Segments      int           // live segment files including the active one
	Bytes         int64         // bytes across live segments
	Appends       int64         // records appended this process
	Syncs         int64         // completed group commits
	LastSyncTime  time.Duration // latency of the most recent fsync
}

type segment struct {
	name  string
	index uint64 // monotonic rotation counter parsed from the name
	first uint64 // lowest seq in the segment, 0 if empty
	last  uint64 // highest seq in the segment, 0 if empty
	size  int64  // valid bytes (post tail repair)
}

// Log is an open write-ahead log. It is safe for one appender goroutine
// plus any number of Stats readers; Replay must finish before appending
// starts (Open → Replay → serve).
type Log struct {
	mu   sync.Mutex
	dir  string
	fs   FS
	opts Options

	segments []segment // ascending by index; last is active
	active   File      // nil until the first append after Open
	ckpts    []uint64  // ascending checkpoint seqs

	lastSeq    uint64
	durableSeq uint64
	appends    int64
	syncs      int64
	lastSync   time.Duration
	pendingSeq uint64 // highest appended-but-unsynced seq

	// syncObs, when set, receives the latency of every real fsync (telemetry
	// histogram feed). Install with SetSyncObserver before appending starts.
	syncObs func(time.Duration)
}

// SetSyncObserver installs fn to be called with each fsync's latency.
// Must be called before concurrent use of the log (wiring time); fn must
// not call back into the log.
func (l *Log) SetSyncObserver(fn func(time.Duration)) {
	l.mu.Lock()
	l.syncObs = fn
	l.mu.Unlock()
}

// Open opens (or initializes) the log directory, repairing any torn tail
// left by a crash: the last segment is truncated to its final valid record
// and leftover checkpoint temp files are removed.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	l := &Log{dir: dir, fs: opts.FS, opts: opts}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	names, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// A checkpoint write the crash interrupted; never renamed, so
			// never authoritative. Best-effort removal.
			_ = l.fs.Remove(l.path(name))
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("wal: unrecognized segment name %q", name)
			}
			l.segments = append(l.segments, segment{name: name, index: idx})
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix):
			seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("wal: unrecognized checkpoint name %q", name)
			}
			l.ckpts = append(l.ckpts, seq)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].index < l.segments[j].index })
	sort.Slice(l.ckpts, func(i, j int) bool { return l.ckpts[i] < l.ckpts[j] })

	// Scan every segment: interior segments must be fully valid; the last
	// one may be torn and is repaired in place.
	for i := range l.segments {
		s := &l.segments[i]
		final := i == len(l.segments)-1
		validLen, first, last, scanErr := l.scanSegment(s.name, nil)
		if scanErr != nil && !final {
			return nil, fmt.Errorf("%w: segment %s: %v", ErrCorruptLog, s.name, scanErr)
		}
		if scanErr != nil { // torn tail in the final segment: truncate it away
			if err := l.fs.Truncate(l.path(s.name), validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", s.name, err)
			}
		}
		s.size, s.first, s.last = validLen, first, last
		if last > l.lastSeq {
			l.lastSeq = last
		}
	}
	// Sequence numbers must not regress across segments (they may repeat:
	// rotation can split one epoch's batches).
	for i := 1; i < len(l.segments); i++ {
		prev, cur := l.segments[i-1], l.segments[i]
		if prev.last != 0 && cur.first != 0 && cur.first < prev.last {
			return nil, fmt.Errorf("%w: segment %s starts at seq %d below predecessor's %d",
				ErrCorruptLog, cur.name, cur.first, prev.last)
		}
	}
	// Everything that survived Open is durable by definition (it was read
	// back from the disk image).
	l.durableSeq = l.lastSeq
	return l, nil
}

func (l *Log) path(name string) string { return filepath.Join(l.dir, name) }

// scanSegment validates name front to back. It returns the length of the
// valid prefix, the first/last seqs seen, and a non-nil error describing
// the first invalid record, if any. When fn is non-nil it is called for
// every valid record in order.
func (l *Log) scanSegment(name string, fn func(seq uint64, batch []Update) error) (validLen int64, first, last uint64, err error) {
	f, err := l.fs.OpenFile(l.path(name), os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	head := make([]byte, len(segmentHeader))
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, 0, 0, fmt.Errorf("short segment header: %v", err)
	}
	if string(head) != segmentHeader {
		return 0, 0, 0, fmt.Errorf("bad segment header %q", head)
	}
	validLen = int64(len(segmentHeader))
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return validLen, first, last, nil // clean end
			}
			return validLen, first, last, fmt.Errorf("short record header: %v", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordBytes {
			return validLen, first, last, fmt.Errorf("implausible record length %d", n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return validLen, first, last, fmt.Errorf("short record payload: %v", err)
		}
		if got := crc32.Checksum(payload, crcTable); got != want {
			return validLen, first, last, fmt.Errorf("record CRC mismatch: %08x != %08x", got, want)
		}
		seq, batch, derr := decodeRecord(payload)
		if derr != nil {
			return validLen, first, last, derr
		}
		if seq < last {
			return validLen, first, last, fmt.Errorf("sequence regressed %d -> %d", last, seq)
		}
		if first == 0 {
			first = seq
		}
		last = seq
		validLen += int64(len(hdr)) + int64(n)
		if fn != nil {
			if err := fn(seq, batch); err != nil {
				return validLen, first, last, err
			}
		}
	}
}

func decodeRecord(p []byte) (seq uint64, batch []Update, err error) {
	seq, k := binary.Uvarint(p)
	if k <= 0 || seq == 0 {
		return 0, nil, fmt.Errorf("bad record seq")
	}
	p = p[k:]
	count, k := binary.Uvarint(p)
	if k <= 0 || count > uint64(len(p)) { // each op takes >= 3 bytes; cheap sanity bound
		return 0, nil, fmt.Errorf("bad record count")
	}
	p = p[k:]
	batch = make([]Update, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return 0, nil, fmt.Errorf("record truncated mid-op")
		}
		op := Op(p[0])
		if op != OpAdd && op != OpRemove {
			return 0, nil, fmt.Errorf("bad op %d", op)
		}
		p = p[1:]
		u, k := binary.Uvarint(p)
		if k <= 0 {
			return 0, nil, fmt.Errorf("record truncated in u")
		}
		p = p[k:]
		v, k := binary.Uvarint(p)
		if k <= 0 {
			return 0, nil, fmt.Errorf("record truncated in v")
		}
		p = p[k:]
		batch = append(batch, Update{Op: op, U: int(u), V: int(v)})
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("trailing bytes in record")
	}
	return seq, batch, nil
}

// Append encodes one update batch as a single record under seq and writes
// it to the active segment. It does NOT make the record durable — call Sync
// to group-commit everything appended since the last call. seq must be > 0
// and nondecreasing across calls (batches folding into the same publish
// epoch share its seq).
func (l *Log) Append(seq uint64, batch []Update) error {
	if seq == 0 {
		return fmt.Errorf("wal: seq must be positive")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.lastSeq {
		return fmt.Errorf("wal: sequence regressed %d -> %d", l.lastSeq, seq)
	}
	if err := l.ensureActive(); err != nil {
		return err
	}
	// Rotate before the record so a record never spans segments.
	if l.activeSeg().size > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	payload := make([]byte, 0, 16+8*len(batch))
	payload = binary.AppendUvarint(payload, seq)
	payload = binary.AppendUvarint(payload, uint64(len(batch)))
	for _, up := range batch {
		payload = append(payload, byte(up.Op))
		payload = binary.AppendUvarint(payload, uint64(up.U))
		payload = binary.AppendUvarint(payload, uint64(up.V))
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.active.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	if _, err := l.active.Write(payload); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	s := l.activeSeg()
	s.size += int64(len(hdr)) + int64(len(payload))
	if s.first == 0 {
		s.first = seq
	}
	s.last = seq
	l.lastSeq = seq
	l.pendingSeq = seq
	l.appends++
	return nil
}

// Sync group-commits: one fsync covers every record appended since the
// previous Sync. After it returns, those records survive a crash.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.active == nil || l.pendingSeq == 0 {
		return nil
	}
	t0 := time.Now()
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastSync = time.Since(t0)
	if l.syncObs != nil {
		l.syncObs(l.lastSync)
	}
	l.syncs++
	if l.pendingSeq > l.durableSeq {
		l.durableSeq = l.pendingSeq
	}
	l.pendingSeq = 0
	return nil
}

func (l *Log) activeSeg() *segment { return &l.segments[len(l.segments)-1] }

// ensureActive opens the newest segment for appending, creating the first
// segment on a fresh log. Reopened segments were already tail-repaired by
// Open, so appending continues at their valid end — except a segment torn
// before its header became durable (repaired to zero bytes), which is
// rewritten from scratch.
func (l *Log) ensureActive() error {
	if l.active != nil {
		return nil
	}
	if len(l.segments) == 0 {
		return l.createSegment(1)
	}
	s := l.activeSeg()
	if s.size < int64(len(segmentHeader)) {
		f, err := l.fs.OpenFile(l.path(s.name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("wal: rewriting torn segment %s: %w", s.name, err)
		}
		if _, err := f.Write([]byte(segmentHeader)); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewriting segment header: %w", err)
		}
		s.size = int64(len(segmentHeader))
		l.active = f
		return nil
	}
	f, err := l.fs.OpenFile(l.path(s.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening active segment: %w", err)
	}
	l.active = f
	return nil
}

// createSegment starts segment idx: create, write the header, and make the
// directory entry durable. The header itself becomes durable with the first
// group commit; a crash before that leaves a short segment that Open
// tolerates as the (empty) torn tail.
func (l *Log) createSegment(idx uint64) error {
	name := fmt.Sprintf("%s%016x%s", segPrefix, idx, segSuffix)
	f, err := l.fs.OpenFile(l.path(name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	if _, err := f.Write([]byte(segmentHeader)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing dir after segment create: %w", err)
	}
	l.segments = append(l.segments, segment{name: name, index: idx, size: int64(len(segmentHeader))})
	l.active = f
	return nil
}

// rotate seals the active segment (fsync so its interior is fully durable —
// the Open invariant that only the last segment can be torn depends on
// this) and starts the next one.
func (l *Log) rotate() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync on rotate: %w", err)
	}
	if l.pendingSeq > l.durableSeq {
		l.durableSeq = l.pendingSeq
	}
	l.pendingSeq = 0
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	l.active = nil
	return l.createSegment(l.activeSeg().index + 1)
}

// Replay calls fn for every logged batch with seq > afterSeq, in append
// order. It must run before the first Append after Open.
func (l *Log) Replay(afterSeq uint64, fn func(seq uint64, batch []Update) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for _, s := range segs {
		if s.last != 0 && s.last <= afterSeq {
			continue // entirely below the checkpoint
		}
		if s.size < int64(len(segmentHeader)) {
			// The final segment, torn before even its header became durable
			// and repaired to zero length by Open. Nothing to replay.
			continue
		}
		_, _, _, err := l.scanSegment(s.name, func(seq uint64, batch []Update) error {
			if seq <= afterSeq {
				return nil
			}
			return fn(seq, batch)
		})
		// Open already repaired tails; a scan error now is a real failure.
		if err != nil {
			return fmt.Errorf("wal: replaying %s: %w", s.name, err)
		}
	}
	return nil
}

// WriteCheckpoint atomically persists a full-state snapshot for seq: the
// payload is written to a temp file, fsynced, renamed into place, and the
// directory is fsynced — a crash anywhere leaves either the old checkpoint
// set or the new one, never a half-written file under the final name. On
// success, segments entirely at or below seq and older checkpoints are
// pruned (best effort: a crash mid-prune leaves stale files that the next
// checkpoint removes).
//
// The payload should carry its own integrity check (the trussindex CTCIDX3
// trailer does); recovery validates it at load time and falls back to an
// older checkpoint if damaged.
func (l *Log) WriteCheckpoint(seq uint64, payload func(io.Writer) error) error {
	if seq == 0 {
		return fmt.Errorf("wal: checkpoint seq must be positive")
	}
	// Everything the checkpoint covers must be durable in the log first;
	// otherwise pruning could discard the only copy of an unsynced batch.
	l.mu.Lock()
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	final := fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
	tmp := final + tmpSuffix
	f, err := l.fs.OpenFile(l.path(tmp), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint temp: %w", err)
	}
	err = payload(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = l.fs.Remove(l.path(tmp))
		return fmt.Errorf("wal: writing checkpoint %d: %w", seq, err)
	}
	if err := l.fs.Rename(l.path(tmp), l.path(final)); err != nil {
		return fmt.Errorf("wal: installing checkpoint %d: %w", seq, err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing dir after checkpoint %d: %w", seq, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ckpts = append(l.ckpts, seq)
	sort.Slice(l.ckpts, func(i, j int) bool { return l.ckpts[i] < l.ckpts[j] })
	return l.pruneLocked()
}

// pruneLocked enforces the retention policy: the newest TWO checkpoints
// survive, along with every segment holding a record above the older
// retained checkpoint. Keeping the previous checkpoint (not just the
// newest) is what makes corruption fallback sound — if the newest
// checkpoint file is later found damaged, the previous one plus the
// retained segments can still roll the state fully forward; pruning up to
// the newest would have destroyed the only path. The active segment always
// survives.
func (l *Log) pruneLocked() error {
	if len(l.ckpts) == 0 {
		return nil
	}
	keepFrom := len(l.ckpts) - 2
	if keepFrom < 0 {
		keepFrom = 0
	}
	floor := l.ckpts[keepFrom]
	kept := l.segments[:0]
	for i, s := range l.segments {
		// An empty or fully-covered segment is prunable unless it is the
		// active (last) one.
		if i < len(l.segments)-1 && s.last <= floor {
			if err := l.fs.Remove(l.path(s.name)); err != nil {
				l.segments = append(kept, l.segments[i:]...)
				return fmt.Errorf("wal: pruning segment %s: %w", s.name, err)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.segments = kept
	keptCk := l.ckpts[:0]
	for _, c := range l.ckpts {
		if c < floor {
			name := fmt.Sprintf("%s%016x%s", ckptPrefix, c, ckptSuffix)
			if err := l.fs.Remove(l.path(name)); err != nil {
				return fmt.Errorf("wal: pruning checkpoint %d: %w", c, err)
			}
			continue
		}
		keptCk = append(keptCk, c)
	}
	l.ckpts = keptCk
	// Make the removals durable; a crash before this just resurrects
	// already-pruned files, which recovery ignores.
	return l.fs.SyncDir(l.dir)
}

// Checkpoints returns the available checkpoint seqs, newest first.
func (l *Log) Checkpoints() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, len(l.ckpts))
	for i, c := range l.ckpts {
		out[len(out)-1-i] = c
	}
	return out
}

// OpenCheckpoint opens the payload of checkpoint seq for reading.
func (l *Log) OpenCheckpoint(seq uint64) (io.ReadCloser, error) {
	name := fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
	return l.fs.OpenFile(l.path(name), os.O_RDONLY, 0)
}

// LastSeq returns the highest appended sequence number (durable or not).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LastSeq:      l.lastSeq,
		DurableSeq:   l.durableSeq,
		Segments:     len(l.segments),
		Appends:      l.appends,
		Syncs:        l.syncs,
		LastSyncTime: l.lastSync,
	}
	if len(l.ckpts) > 0 {
		st.CheckpointSeq = l.ckpts[len(l.ckpts)-1]
	}
	for _, s := range l.segments {
		st.Bytes += s.size
	}
	return st
}

// Close seals the log: outstanding appends are synced and the active
// segment handle is closed. The directory remains recoverable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}
