package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the read side of replication: a Cursor names a byte
// position in a log directory, and a Tailer follows the directory,
// delivering every complete record exactly once, in order, across
// segment rotations. The tailer works purely from the on-disk layout,
// so it can run inside the writing process (a primary shipping its own
// WAL, woken by the store's commit signal and reading with TryNext) or
// over a directory another process owns (seswal tail, polling with
// Next).

// headerLen is the segment header size ("SESWAL" + version byte).
const headerLen = len(segMagic) + 1

// ErrTruncated reports that a cursor points below the log's
// checkpoint horizon: the segments holding those records have been
// truncated away, so the tailer cannot resume there. Callers recover
// by reloading the newest checkpoint (Open + Checkpoint) and
// restarting the tailer at Cursor{Seq: CheckpointSeq()}.
var ErrTruncated = errors.New("wal: cursor predates the checkpoint horizon")

// Cursor is a replication position: the next byte to read, as a
// (segment seq, byte offset) pair. The zero cursor means "from the
// beginning of the log".
type Cursor struct {
	Seq uint64
	Off int64
}

// IsZero reports the "from the beginning" cursor.
func (c Cursor) IsZero() bool { return c.Seq == 0 && c.Off == 0 }

// Before orders cursors within one log.
func (c Cursor) Before(o Cursor) bool {
	return c.Seq < o.Seq || (c.Seq == o.Seq && c.Off < o.Off)
}

// String renders the cursor as "seq:off" (both decimal), the form
// ParseCursor reads and the replication protocol exchanges.
func (c Cursor) String() string {
	return strconv.FormatUint(c.Seq, 10) + ":" + strconv.FormatInt(c.Off, 10)
}

// ParseCursor reads "seq" or "seq:off".
func ParseCursor(s string) (Cursor, error) {
	seqPart, offPart, hasOff := strings.Cut(s, ":")
	seq, err := strconv.ParseUint(seqPart, 10, 64)
	if err != nil {
		return Cursor{}, fmt.Errorf("wal: bad cursor %q", s)
	}
	c := Cursor{Seq: seq}
	if hasOff {
		off, err := strconv.ParseInt(offPart, 10, 64)
		if err != nil || off < 0 {
			return Cursor{}, fmt.Errorf("wal: bad cursor %q", s)
		}
		c.Off = off
	}
	return c, nil
}

// Position returns the log's current append position: the cursor a
// tailer that has consumed everything would hold. Before the first
// append it reflects the recovered on-disk tail (or the checkpoint
// boundary when the log is empty).
func (l *Log) Position() Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		return Cursor{Seq: l.seq, Off: l.size}
	}
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		c := Cursor{Seq: last.seq}
		if st, err := os.Stat(last.path); err == nil {
			c.Off = st.Size()
		}
		return c
	}
	return Cursor{Seq: l.ckptSeq}
}

// TailerOptions configures a Tailer; the zero value is usable.
type TailerOptions struct {
	// Poll is how often Next re-checks the directory when it has
	// caught up with the tail (0 = 10ms). TryNext never waits.
	Poll time.Duration
}

func (o TailerOptions) poll() time.Duration {
	if o.Poll <= 0 {
		return 10 * time.Millisecond
	}
	return o.Poll
}

// Tailer follows a log directory. TryNext returns the next complete
// record if one is on disk; Next blocks until one is (polling the
// directory). Both tolerate segment rotation and torn tails:
//
//   - an incomplete or CRC-failing frame at the tail of the *newest*
//     segment is treated as an in-flight append and re-read until it
//     completes;
//   - the same tear in a segment that already has a successor is a
//     permanent crash artifact (rotation fsyncs and seals the outgoing
//     segment, and every Open starts a fresh one), so the tailer skips
//     to the next segment and records the skip in Skipped — after one
//     re-read, since the frame may have completed between the failed
//     read and the directory scan that found the successor;
//   - a cursor below the checkpoint horizon yields ErrTruncated — the
//     records are gone and the caller must resync from the checkpoint.
//
// Like recovery, a tailer may deliver a fully-written record an
// instant before its Append is acknowledged (the frame hits the page
// cache before its fsync returns); it never delivers a partial
// or reordered one. A caller that must not read past acknowledged
// records — the cluster shipper — stops at the writer's committed
// cursor instead of draining to the end of the file. A Tailer is not
// safe for concurrent use.
type Tailer struct {
	dir     string
	opts    TailerOptions
	cur     Cursor
	f       *os.File
	buf     []byte
	skipped []Truncation
	// missed, when set, runs between a failed frame read and the
	// successor scan (tests use it to finish an append and rotate
	// inside that window).
	missed func()
}

// NewTailer positions a tailer at from within dir. The directory need
// not exist yet: Next waits for it, TryNext reports nothing.
func NewTailer(dir string, from Cursor, opts TailerOptions) *Tailer {
	return &Tailer{dir: dir, opts: opts, cur: from}
}

// Cursor returns the position of the next byte the tailer will read.
// After a Next it names the record boundary just consumed, which is
// what replication acknowledges and resumes from.
func (t *Tailer) Cursor() Cursor { return t.cur }

// Skipped lists the permanent torn tails the tailer has skipped at
// segment boundaries (crash artifacts of unacknowledged appends).
func (t *Tailer) Skipped() []Truncation { return t.skipped }

// Close releases the tailer's open segment file.
func (t *Tailer) Close() error {
	if t.f != nil {
		err := t.f.Close()
		t.f = nil
		return err
	}
	return nil
}

// Next returns the next complete record, blocking until one is
// available or ctx is done: TryNext, polling the directory every
// TailerOptions.Poll while it finds nothing. The record's payload is
// owned by the tailer and valid only until the following Next or
// TryNext call. The returned record's End is the cursor to resume
// from.
func (t *Tailer) Next(ctx context.Context) (Record, error) {
	for {
		rec, ok, err := t.TryNext()
		if err != nil || ok {
			return rec, err
		}
		if err := sleepCtx(ctx, t.opts.poll()); err != nil {
			return Record{}, err
		}
	}
}

// TryNext returns the next complete record without waiting: ok is
// false when none is on disk yet (the segment does not exist, or the
// newest segment ends at the cursor or in a frame still being
// written). Payload ownership and errors are as for Next.
func (t *Tailer) TryNext() (rec Record, ok bool, err error) {
	for {
		ready, err := t.ensure()
		if err != nil || !ready {
			return Record{}, false, err
		}
		if rec, ok := t.readRecord(); ok {
			return rec, true, nil
		}
		// Incomplete frame at t.cur.Off. If a later segment exists
		// this segment is sealed and the tail is a permanent tear;
		// otherwise it may be an append in flight — report nothing yet.
		if t.missed != nil {
			t.missed()
		}
		next, gap, err := t.successor()
		if err != nil {
			return Record{}, false, err
		}
		if gap {
			return Record{}, false, ErrTruncated
		}
		if !next {
			return Record{}, false, nil
		}
		// The frame may have been in flight at the read above and
		// completed before the rotation the scan saw. A successor
		// means every append to this segment has returned (the
		// writer holds its lock across the write and the rotation),
		// so this read is final.
		if rec, ok := t.readRecord(); ok {
			return rec, true, nil
		}
		if t.cur.Off < t.segEnd() {
			t.skipped = append(t.skipped, Truncation{
				Seq:    t.cur.Seq,
				Offset: t.cur.Off,
				Reason: "torn tail sealed by rotation",
			})
		}
		t.advance()
	}
}

// ensure positions the tailer on an open, validated segment for
// cur.Seq. It returns ready=false (without error) when the segment
// does not exist yet and the tailer should wait.
func (t *Tailer) ensure() (bool, error) {
	if t.f != nil {
		return true, nil
	}
	segs, ckptSeq, err := scanDir(t.dir)
	if err != nil {
		return false, err
	}
	if t.cur.IsZero() {
		if ckptSeq > 0 {
			// Records before the checkpoint are gone; "from the
			// beginning" is unsatisfiable.
			return false, ErrTruncated
		}
		if len(segs) == 0 {
			return false, nil
		}
		t.cur.Seq = segs[0]
	}
	if t.cur.Seq < ckptSeq {
		return false, ErrTruncated
	}
	if len(segs) > 0 && t.cur.Seq < segs[0] {
		return false, ErrTruncated
	}
	found := false
	for _, s := range segs {
		if s == t.cur.Seq {
			found = true
			break
		}
	}
	if !found {
		// The segment has not been created yet (the writer rotates
		// lazily); wait for it.
		return false, nil
	}
	f, err := os.Open(t.segFilePath(t.cur.Seq))
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // raced a checkpoint sweep; rescan next round
		}
		return false, err
	}
	var head [headerLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(headerLen)), head[:]); err != nil {
		f.Close()
		return false, nil // header still being written
	}
	if string(head[:len(segMagic)]) != segMagic {
		f.Close()
		return false, fmt.Errorf("wal: segment %s: bad magic", t.segFilePath(t.cur.Seq))
	}
	if v := int(head[len(segMagic)]); v != Version {
		f.Close()
		return false, fmt.Errorf("%w: segment has version %d (this build reads %d)", ErrVersion, v, Version)
	}
	t.f = f
	if t.cur.Off < int64(headerLen) {
		t.cur.Off = int64(headerLen)
	}
	return true, nil
}

// readRecord attempts to read one complete frame at the cursor. It
// returns ok=false for any incomplete or invalid frame — the caller
// decides whether that means "wait" or "sealed tear" from the
// directory state.
func (t *Tailer) readRecord() (Record, bool) {
	var head [frameHead]byte
	if _, err := t.f.ReadAt(head[:], t.cur.Off); err != nil {
		return Record{}, false
	}
	length := int64(binary.LittleEndian.Uint32(head[0:4]))
	sum := binary.LittleEndian.Uint32(head[4:8])
	if length > MaxRecordBytes {
		return Record{}, false
	}
	if int64(cap(t.buf)) < length {
		t.buf = make([]byte, length)
	}
	b := t.buf[:length]
	if _, err := t.f.ReadAt(b, t.cur.Off+frameHead); err != nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(b) != sum {
		return Record{}, false
	}
	rec := Record{Seq: t.cur.Seq, Offset: t.cur.Off, End: t.cur.Off + frameHead + length, Payload: b}
	t.cur.Off = rec.End
	return rec, true
}

// successor reports whether a segment after cur.Seq exists. gap=true
// means the next existing segment is not cur.Seq+1 — intermediate
// segments were swept, so the tailer must resync (seqs are otherwise
// contiguous by construction).
func (t *Tailer) successor() (next, gap bool, err error) {
	segs, ckptSeq, err := scanDir(t.dir)
	if err != nil {
		return false, false, err
	}
	for _, s := range segs {
		if s > t.cur.Seq {
			return true, s != t.cur.Seq+1, nil
		}
	}
	// No later segment on disk, but a checkpoint past this segment
	// seals it just the same (WriteCheckpoint retires the active
	// segment; the next one appears only on the next append).
	if ckptSeq > t.cur.Seq {
		return true, ckptSeq != t.cur.Seq+1, nil
	}
	return false, false, nil
}

// segEnd returns the current size of the open segment (0 on error).
func (t *Tailer) segEnd() int64 {
	st, err := t.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// advance moves to the start of the next segment.
func (t *Tailer) advance() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
	t.cur = Cursor{Seq: t.cur.Seq + 1}
}

func (t *Tailer) segFilePath(seq uint64) string {
	return (&Log{dir: t.dir}).segPath(seq)
}

// scanDir lists segment seqs (ascending) and the newest checkpoint
// boundary in dir. A missing directory is an empty log.
func scanDir(dir string) (segs []uint64, ckptSeq uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("wal: scanning %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, segSuffix):
			if seq, err := parseSeq(name, "seg-", segSuffix); err == nil {
				segs = append(segs, seq)
			}
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ckptSuffix):
			if seq, err := parseSeq(name, "ckpt-", ckptSuffix); err == nil && seq > ckptSeq {
				ckptSeq = seq
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, ckptSeq, nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Backlog is the committed data between a cursor and the end of the
// log, measured by walking frame headers (payloads are skipped, not
// read). It is the exact record/byte lag a tailer at that cursor has
// to consume.
type Backlog struct {
	Records int
	Bytes   int64
}

// ScanBacklog measures the backlog from cursor from in dir. The walk
// stops at the first incomplete frame of the newest segment (an
// append in flight) and skips sealed torn tails, mirroring what a
// tailer will deliver. A cursor below the checkpoint horizon returns
// ErrTruncated.
func ScanBacklog(dir string, from Cursor) (Backlog, error) {
	segs, ckptSeq, err := scanDir(dir)
	if err != nil {
		return Backlog{}, err
	}
	if from.IsZero() && ckptSeq > 0 {
		return Backlog{}, ErrTruncated
	}
	if from.Seq < ckptSeq && from.Seq > 0 {
		return Backlog{}, ErrTruncated
	}
	var bl Backlog
	for _, seq := range segs {
		if seq < from.Seq {
			continue
		}
		start := int64(headerLen)
		if seq == from.Seq && from.Off > start {
			start = from.Off
		}
		recs, bytes, err := walkFrames((&Log{dir: dir}).segPath(seq), start)
		if err != nil {
			return bl, err
		}
		bl.Records += recs
		bl.Bytes += bytes
	}
	return bl, nil
}

// walkFrames counts complete frames from start to the first
// incomplete one, returning the count and bytes covered.
func walkFrames(path string, start int64) (int, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil // raced a checkpoint sweep
		}
		return 0, 0, err
	}
	defer f.Close()
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, err
	}
	var (
		head  [frameHead]byte
		recs  int
		off   = start
		bytes int64
	)
	for off+frameHead <= end {
		if _, err := f.ReadAt(head[:], off); err != nil {
			break
		}
		length := int64(binary.LittleEndian.Uint32(head[0:4]))
		if length > MaxRecordBytes || off+frameHead+length > end {
			break
		}
		recs++
		off += frameHead + length
		bytes += frameHead + length
	}
	return recs, bytes, nil
}
