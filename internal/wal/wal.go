// Package wal implements the append-only write-ahead log behind the
// durable session store (ses/internal/store.Durable): a directory of
// numbered segment files holding length-prefixed, CRC32-checksummed
// records, plus atomically-written checkpoint files that let the log
// be truncated.
//
// The package is deliberately payload-agnostic: it frames, checksums,
// rotates, syncs and replays opaque byte records. What the records
// mean — session mutations, commit stamps, snapshots — is the store
// layer's business.
//
// # On-disk layout
//
// A log is one directory:
//
//	seg-0000000000000001.wal   segment files, strictly increasing seq
//	seg-0000000000000002.wal
//	ckpt-0000000000000002.ckpt newest checkpoint (at most one kept)
//
// Every segment starts with the 7-byte header "SESWAL" + one format
// version byte, followed by records:
//
//	[4B little-endian payload length][4B IEEE CRC32 of payload][payload]
//
// A checkpoint file carries the 8-byte header "SESCKPT" + version
// byte, then one record in the same framing. The file named
// ckpt-N.ckpt captures the state as of the *start* of segment N:
// recovery loads the newest checkpoint and replays exactly the
// segments with seq >= N. Checkpoints are written to a temp file,
// fsynced and renamed, so a crash mid-checkpoint leaves the previous
// generation intact.
//
// # Torn tails and recovery
//
// Replay walks segments in seq order and stops a segment at its first
// invalid record — short header, truncated frame, length out of
// range, or CRC mismatch. Everything before that point is returned;
// everything after is ignored. This makes replay torn-tail-tolerant:
// a crash mid-append loses exactly the record being written (which
// was never acknowledged) and nothing else. Because every Open starts
// appends in a fresh segment, a torn tail can only sit at the end of
// a segment that was the active one when a crash happened; records in
// later segments were written by a process that had already recovered
// past the tear, so skipping it never merges divergent histories.
//
// # Format version policy
//
// The version byte in the segment and checkpoint headers follows the
// same policy as the snapshot codec (ses/internal/snap): any change
// an existing reader would misread — different framing, different
// checksum, reordered fields — bumps the version, and readers reject
// versions they do not know up front with ErrVersion rather than
// guessing. Record payloads carry their own versioning (the store
// layer's record kinds); the wal version covers only the framing.
//
// Version history:
//
//   - 1 (current) — initial format: "SESWAL"/"SESCKPT" headers,
//     little-endian uint32 length + IEEE CRC32 framing.
package wal

import (
	"bufio"
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

// Version is the current segment/checkpoint framing version.
const Version = 1

const (
	segMagic   = "SESWAL"
	ckptMagic  = "SESCKPT"
	segSuffix  = ".wal"
	ckptSuffix = ".ckpt"
	frameHead  = 8 // 4B length + 4B CRC
	// MaxRecordBytes bounds a single record payload; a length field
	// beyond it is treated as corruption, which keeps replay from
	// trusting a garbage length and allocating gigabytes.
	MaxRecordBytes = 1 << 28
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives an OS crash or power loss. Slowest; the safe default.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a periodic flusher (the store runs
	// one; see Log.Sync): a process crash loses nothing, an OS crash
	// loses at most the last interval of acknowledged records.
	SyncInterval
	// SyncNone never fsyncs explicitly (segment rotation, checkpoints
	// and Close still do): a process crash loses nothing, an OS crash
	// can lose anything since the last rotation. Fastest.
	SyncNone
)

// String returns the spec form used by flags ("always", "interval",
// "none").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves the flag spelling of a sync policy; ""
// means SyncAlways.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
	}
}

// Options configures a Log; the zero value is usable (SyncAlways,
// 64 MiB segments).
type Options struct {
	// Sync is the append durability policy.
	Sync SyncPolicy
	// SegmentMaxBytes rotates the active segment once it exceeds this
	// size (0 = 64 MiB). Rotation always fsyncs the outgoing segment.
	SegmentMaxBytes int64

	// syncFile overrides segment fsync in tests (fault injection and
	// flush counting); nil means (*os.File).Sync.
	syncFile func(*os.File) error
}

func (o Options) segmentMax() int64 {
	if o.SegmentMaxBytes <= 0 {
		return 64 << 20
	}
	return o.SegmentMaxBytes
}

// Errors.
var (
	// ErrVersion reports a segment or checkpoint header version this
	// build does not read.
	ErrVersion = errors.New("wal: unsupported format version")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrReplayed reports a second Replay call; replay consumes the
	// recovered tail exactly once, before appending starts.
	ErrReplayed = errors.New("wal: log already replayed")
)

// Record is one replayed log record with its provenance, so callers
// (and the seswal inspector) can map records back to byte positions.
type Record struct {
	// Seq is the segment the record was read from.
	Seq uint64
	// Offset and End are the record's frame boundaries within the
	// segment file (Offset points at the length field).
	Offset, End int64
	// Payload is the record body. It is owned by the callback for the
	// duration of the call only.
	Payload []byte
}

// Truncation reports one spot where replay stopped short inside a
// segment (torn tail or corruption).
type Truncation struct {
	Seq    uint64
	Offset int64  // byte offset replay stopped at
	Reason string // human-readable cause
}

// ReplayReport summarizes one recovery pass.
type ReplayReport struct {
	// CheckpointSeq is the segment the loaded checkpoint points at (0
	// when the log had no checkpoint).
	CheckpointSeq uint64
	// Segments and Records count what was scanned and delivered.
	Segments int
	Records  int
	// Truncations lists the spots where a segment ended early.
	Truncations []Truncation
}

// Stats counts a log's append-path work since Open, for pricing the
// fsync cost of a sync policy (see the seswal stats command and sesd
// /v1/metrics).
type Stats struct {
	// Appends counts records written by this process.
	Appends uint64 `json:"appends"`
	// Fsyncs counts fsyncs issued on segment files (appends, rotation,
	// interval flushes and close; checkpoint temp files excluded).
	Fsyncs uint64 `json:"fsyncs"`
}

// Add accumulates other into s (for summing per-shard logs).
func (s *Stats) Add(other Stats) {
	s.Appends += other.Appends
	s.Fsyncs += other.Fsyncs
}

// RecordsPerFsync is appended records per segment fsync (0 when
// nothing was synced). Under SyncAlways it is at most 1: every append
// pays its own fsync, and rotation and close add more.
func (s Stats) RecordsPerFsync() float64 {
	if s.Fsyncs == 0 {
		return 0
	}
	return float64(s.Appends) / float64(s.Fsyncs)
}

// Log is one append-only write-ahead log directory. All methods are
// safe for concurrent use, but replay must finish before the first
// Append; the store layer serializes that naturally (recovery runs
// before serving).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment (nil until first append)
	seq      uint64   // active segment seq (0 until first append)
	nextSeq  uint64   // seq the next created segment gets
	size     int64
	dirty    bool // unsynced appended bytes
	closed   bool
	replayed bool

	// stats (guarded by mu).
	stats Stats

	// recovered state from Open.
	ckptData []byte
	ckptSeq  uint64
	segs     []segFile // segments with seq >= ckptSeq, ascending
	stale    []segFile // segments a crashed checkpoint left behind
}

// segFile is one discovered segment.
type segFile struct {
	seq  uint64
	path string
}

// Open scans dir (which need not exist yet) and prepares the log for
// replay and appending. Nothing is created or modified until the
// first Append or WriteCheckpoint, so opening a log read-only — as
// the seswal inspector does — leaves the directory untouched.
func Open(dir string, opts Options) (*Log, error) {
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return l, nil
		}
		return nil, fmt.Errorf("wal: opening %s: %w", dir, err)
	}
	var ckpts []segFile
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, segSuffix):
			seq, err := parseSeq(name, "seg-", segSuffix)
			if err != nil {
				continue // foreign file; ignore
			}
			l.segs = append(l.segs, segFile{seq: seq, path: filepath.Join(dir, name)})
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ckptSuffix):
			seq, err := parseSeq(name, "ckpt-", ckptSuffix)
			if err != nil {
				continue
			}
			ckpts = append(ckpts, segFile{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].seq < l.segs[j].seq })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].seq < ckpts[j].seq })

	// Load the newest checkpoint. A checkpoint that fails to parse is
	// fatal: the segments covering its state were truncated when it
	// was written, so silently skipping it would resurrect an ancient
	// (or empty) state as if it were current.
	if len(ckpts) > 0 {
		newest := ckpts[len(ckpts)-1]
		data, err := readCheckpointFile(newest.path)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint %s: %w", newest.path, err)
		}
		l.ckptData = data
		l.ckptSeq = newest.seq
	}

	// Replay covers segments at or after the checkpoint boundary. A
	// crash between installing a checkpoint and deleting the segments
	// it covers leaves stale ones behind; they are ignored here and
	// swept by the next WriteCheckpoint.
	kept := make([]segFile, 0, len(l.segs))
	for _, s := range l.segs {
		if s.seq >= l.ckptSeq {
			kept = append(kept, s)
		} else {
			l.stale = append(l.stale, s)
		}
	}
	l.segs = kept
	if n := len(l.segs); n > 0 {
		l.nextSeq = l.segs[n-1].seq + 1
	} else if l.ckptSeq > 0 {
		l.nextSeq = l.ckptSeq
	}
	return l, nil
}

// parseSeq extracts the sequence number from a segment/ckpt filename.
func parseSeq(name, prefix, suffix string) (uint64, error) {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil || seq == 0 {
		return 0, fmt.Errorf("wal: bad sequence in %q", name)
	}
	return seq, nil
}

// Checkpoint returns the payload of the newest checkpoint recovered
// by Open (nil when the log had none). The slice is owned by the log;
// callers must not modify it.
func (l *Log) Checkpoint() []byte { return l.ckptData }

// Stats returns the log's append-path counters since Open.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Replay streams every recovered record, in (segment, offset) order,
// to fn. Replay stops a segment at its first invalid record (see the
// package torn-tail contract) and reports where in the returned
// ReplayReport. A non-nil error from fn aborts the walk and is
// returned. Replay may be called at most once, before any Append.
func (l *Log) Replay(fn func(Record) error) (ReplayReport, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ReplayReport{}, ErrClosed
	}
	if l.replayed {
		l.mu.Unlock()
		return ReplayReport{}, ErrReplayed
	}
	l.replayed = true
	segs := l.segs
	rep := ReplayReport{CheckpointSeq: l.ckptSeq}
	l.mu.Unlock()
	if len(segs) == 0 {
		return rep, nil // a store opens one log per shard, most of them empty
	}

	// Buffer the walk: replay reads two small frames per record, and
	// recovery is the path a rebooting daemon blocks on. Every segment
	// goes through this one reader and payload buffer, so the reader
	// is allocated once however many segments a replay reads.
	br := bufio.NewReaderSize(nil, 64<<10)
	buf := make([]byte, 0, 4096)
	for _, s := range segs {
		rep.Segments++
		trunc, err := replaySegment(s, &rep, br, &buf, fn)
		if err != nil {
			return rep, err
		}
		if trunc != nil {
			rep.Truncations = append(rep.Truncations, *trunc)
		}
	}
	return rep, nil
}

// replaySegment walks one segment file. It returns a non-nil
// Truncation when the segment ended early, and a non-nil error only
// for I/O failures or a callback error.
func replaySegment(s segFile, rep *ReplayReport, br *bufio.Reader, buf *[]byte, fn func(Record) error) (*Truncation, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment %s: %w", s.path, err)
	}
	defer f.Close()
	br.Reset(f)
	r := &countingReader{r: br}

	head := make([]byte, len(segMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return &Truncation{Seq: s.seq, Offset: 0, Reason: "short segment header"}, nil
	}
	if string(head[:len(segMagic)]) != segMagic {
		return &Truncation{Seq: s.seq, Offset: 0, Reason: "bad segment magic"}, nil
	}
	if v := int(head[len(segMagic)]); v != Version {
		return nil, fmt.Errorf("%w: segment %s has version %d (this build reads %d)", ErrVersion, s.path, v, Version)
	}

	for {
		off := r.n
		payload, reason, err := readFrame(r, buf)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", s.path, err)
		}
		if reason == "eof" {
			return nil, nil
		}
		if reason != "" {
			return &Truncation{Seq: s.seq, Offset: off, Reason: reason}, nil
		}
		rep.Records++
		if err := fn(Record{Seq: s.seq, Offset: off, End: r.n, Payload: payload}); err != nil {
			return nil, err
		}
	}
}

// readFrame reads one [len][crc][payload] frame. It returns reason ==
// "eof" at a clean end, a non-empty reason for a torn/corrupt frame,
// and a non-nil error only for real I/O failures.
func readFrame(r io.Reader, buf *[]byte) (payload []byte, reason string, err error) {
	var head [frameHead]byte
	n, err := io.ReadFull(r, head[:])
	if err == io.EOF && n == 0 {
		return nil, "eof", nil
	}
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return nil, "torn frame header", nil
	}
	if err != nil {
		return nil, "", err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	if length > MaxRecordBytes {
		return nil, fmt.Sprintf("record length %d exceeds limit", length), nil
	}
	if cap(*buf) < int(length) {
		*buf = make([]byte, length)
	}
	b := (*buf)[:length]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, "torn record payload", nil
		}
		return nil, "", err
	}
	if crc32.ChecksumIEEE(b) != sum {
		return nil, "payload CRC mismatch", nil
	}
	return b, "", nil
}

// countingReader tracks the byte offset of a sequential reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Append frames payload, writes it to the active segment and — under
// SyncAlways — fsyncs before returning. The payload is copied into
// the kernel before Append returns, so the caller may reuse it.
// Concurrent appends to one log serialize on its mutex, which spans
// the write and the fsync, so acknowledgment order is on-disk order
// and a failed fsync fails exactly the append that issued it.
func (l *Log) Append(payload []byte) error {
	_, err := l.AppendCursor(payload)
	return err
}

// AppendCursor is Append returning the cursor just past the appended
// record: a Tailer that reaches this cursor has shipped the record,
// and a replica acknowledging a cursor not Before it has applied it.
// That makes the return value the per-record replication watermark —
// synchronous-ack callers wait until enough followers ack a cursor at
// or beyond it. The durability contract is identical to Append's.
func (l *Log) AppendCursor(payload []byte) (Cursor, error) {
	if len(payload) > MaxRecordBytes {
		return Cursor{}, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeFrameLocked(payload); err != nil {
		return Cursor{}, err
	}
	pos := Cursor{Seq: l.seq, Off: l.size}
	if l.opts.Sync == SyncAlways {
		if err := l.fsyncSegmentLocked(); err != nil {
			return Cursor{}, err
		}
		return pos, nil
	}
	l.dirty = true
	return pos, nil
}

// writeFrameLocked rotates if needed and writes one framed record to
// the active segment. Called with l.mu held; it does not sync.
func (l *Log) writeFrameLocked(payload []byte) error {
	if l.closed {
		return ErrClosed
	}
	if l.f == nil || l.size >= l.opts.segmentMax() {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var head [frameHead]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(head[:]); err != nil {
		return fmt.Errorf("wal: appending to %s: %w", l.f.Name(), err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: appending to %s: %w", l.f.Name(), err)
	}
	l.size += int64(frameHead + len(payload))
	l.stats.Appends++
	return nil
}

// fsyncSegmentLocked syncs the active segment (through the test hook
// when set) and counts the fsync. Called with l.mu held.
func (l *Log) fsyncSegmentLocked() error {
	if err := l.fsyncFile(l.f); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.f.Name(), err)
	}
	l.stats.Fsyncs++
	l.dirty = false
	return nil
}

// fsyncFile routes an fsync through the test hook when one is set.
func (l *Log) fsyncFile(f *os.File) error {
	if l.opts.syncFile != nil {
		return l.opts.syncFile(f)
	}
	return f.Sync()
}

// rotateLocked fsyncs and closes the active segment (if any) and
// opens the next one. Called with l.mu held.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.fsyncSegmentLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing %s: %w", l.f.Name(), err)
		}
		l.f = nil
		l.dirty = false
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	seq := l.nextSeq
	path := l.segPath(seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(append([]byte(segMagic), Version)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f = f
	l.seq = seq
	l.nextSeq = seq + 1
	l.size = int64(len(segMagic) + 1)
	l.segs = append(l.segs, segFile{seq: seq, path: path})
	return syncDir(l.dir)
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%016x%s", seq, segSuffix))
}

func (l *Log) ckptPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("ckpt-%016x%s", seq, ckptSuffix))
}

// Sync flushes unsynced appends to stable storage. It is the
// periodic-flusher entry point for SyncInterval logs and a no-op when
// nothing is dirty.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	return l.fsyncSegmentLocked()
}

// NeedsSync reports whether the log has appended bytes not yet
// fsynced.
func (l *Log) NeedsSync() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty
}

// HasData reports whether the log holds anything at all — a recovered
// checkpoint, recovered segments, or appends from this process.
func (l *Log) HasData() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptData != nil || len(l.segs) > 0
}

// WriteCheckpoint atomically installs data as the log's checkpoint
// and truncates the segments it covers. The caller must guarantee
// that data captures all state whose records precede the call and
// none of any concurrent append — in the durable store both are
// enforced by the per-shard op lock held around snapshot + checkpoint.
//
// Sequence: the active segment is fsynced and retired, the checkpoint
// is written to a temp file, fsynced and renamed over ckpt-N (N = the
// seq the *next* segment will get), and only then are segments < N
// and older checkpoints deleted. A crash at any point leaves either
// the old generation or the new one fully intact.
func (l *Log) WriteCheckpoint(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Retire the active segment so the checkpoint boundary is a
	// segment boundary.
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing %s: %w", l.f.Name(), err)
		}
		l.f = nil
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	seq := l.nextSeq // state as of the start of the segment to come

	tmp, err := os.CreateTemp(l.dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	var head [frameHead]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(data))
	if _, err := tmp.Write(append([]byte(ckptMagic), Version)); err != nil {
		return fail(fmt.Errorf("wal: writing checkpoint: %w", err))
	}
	if _, err := tmp.Write(head[:]); err != nil {
		return fail(fmt.Errorf("wal: writing checkpoint: %w", err))
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("wal: writing checkpoint: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("wal: syncing checkpoint: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("wal: closing checkpoint temp: %w", err))
	}
	if err := os.Rename(tmpName, l.ckptPath(seq)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// The new checkpoint is durable; everything it covers can go.
	l.ckptData = append([]byte(nil), data...)
	l.ckptSeq = seq
	for _, s := range l.segs {
		if s.seq < seq {
			os.Remove(s.path)
		}
	}
	l.segs = l.segs[:0]
	for _, s := range l.stale {
		os.Remove(s.path)
	}
	l.stale = nil
	// Sweep every other checkpoint file — the tracked previous one,
	// strays a crash left between install and delete on an earlier
	// generation, and temp files from crashed writes — so exactly one
	// checkpoint remains.
	newCkpt := filepath.Base(l.ckptPath(seq))
	if ents, err := os.ReadDir(l.dir); err == nil {
		for _, e := range ents {
			name := e.Name()
			if !strings.HasPrefix(name, "ckpt-") || name == newCkpt {
				continue
			}
			if strings.HasSuffix(name, ckptSuffix) || strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(l.dir, name))
			}
		}
	}
	return syncDir(l.dir)
}

// readCheckpointFile parses one checkpoint file.
func readCheckpointFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, len(ckptMagic)+1)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, errors.New("short checkpoint header")
	}
	if string(head[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("bad checkpoint magic")
	}
	if v := int(head[len(ckptMagic)]); v != Version {
		return nil, fmt.Errorf("%w: checkpoint version %d (this build reads %d)", ErrVersion, v, Version)
	}
	var buf []byte
	payload, reason, err := readFrame(f, &buf)
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return nil, fmt.Errorf("checkpoint frame: %s", reason)
	}
	out := append([]byte(nil), payload...)
	return out, nil
}

// Close fsyncs and closes the active segment. The log must not be
// used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	// Close always flushes: under SyncInterval/SyncNone this is what
	// makes a clean shutdown lose nothing even when the flusher never
	// got to the last appends.
	err := l.fsyncSegmentLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Filesystems that refuse to fsync directories are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() // best effort; some filesystems reject it
	return nil
}

// SegmentInfo describes one on-disk segment for inspection.
type SegmentInfo struct {
	Seq   uint64
	Path  string
	Bytes int64
}

// Segments lists the log's current segment files (recovered plus
// appended), ascending by seq; sizes are read fresh from the
// filesystem.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, 0, len(l.segs))
	for _, s := range l.segs {
		info := SegmentInfo{Seq: s.seq, Path: s.path}
		if st, err := os.Stat(s.path); err == nil {
			info.Bytes = st.Size()
		}
		out = append(out, info)
	}
	return out
}

// CheckpointSeq returns the seq boundary of the loaded/installed
// checkpoint (0 when there is none).
func (l *Log) CheckpointSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptSeq
}

// interval flusher support ---------------------------------------------------

// Flusher periodically Syncs a set of logs; the durable store runs
// one when its policy is SyncInterval.
type Flusher struct {
	interval time.Duration
	logs     []*Log
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewFlusher starts a background flusher over logs (nil entries are
// skipped) with the given interval (0 = 50ms).
func NewFlusher(interval time.Duration, logs []*Log) *Flusher {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	f := &Flusher{interval: interval, logs: logs, done: make(chan struct{})}
	f.wg.Add(1)
	go f.loop()
	return f
}

func (f *Flusher) loop() {
	defer f.wg.Done()
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
			for _, l := range f.logs {
				if l != nil && l.NeedsSync() {
					l.Sync() // best effort; append-path errors surface there
				}
			}
		}
	}
}

// Stop halts the flusher after a final sync pass.
func (f *Flusher) Stop() {
	close(f.done)
	f.wg.Wait()
	for _, l := range f.logs {
		if l != nil && l.NeedsSync() {
			l.Sync()
		}
	}
}
