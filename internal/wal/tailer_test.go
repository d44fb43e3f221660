package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCursorStringParse(t *testing.T) {
	cases := []Cursor{{}, {Seq: 1}, {Seq: 7, Off: 4096}, {Seq: 1 << 40, Off: 1 << 33}}
	for _, c := range cases {
		got, err := ParseCursor(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCursor(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if got, err := ParseCursor("12"); err != nil || got != (Cursor{Seq: 12}) {
		t.Errorf("ParseCursor(12) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "1:x", "1:-5", ":3"} {
		if _, err := ParseCursor(bad); err == nil {
			t.Errorf("ParseCursor(%q) accepted", bad)
		}
	}
	if !(Cursor{Seq: 1, Off: 9}).Before(Cursor{Seq: 2}) || (Cursor{Seq: 2}).Before(Cursor{Seq: 2}) {
		t.Error("Before ordering wrong")
	}
}

func TestTailerFollowsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := testCtx(t)

	tl := NewTailer(dir, Cursor{}, TailerOptions{Poll: time.Millisecond})
	defer tl.Close()

	want := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		rec, err := tl.Next(ctx)
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !bytes.Equal(rec.Payload, w) {
			t.Fatalf("record %d = %q, want %q", i, rec.Payload, w)
		}
	}

	// The tailer is caught up; an append made while it waits must
	// arrive, and a new tailer resumed from the cursor must see only
	// what follows it.
	resume := tl.Cursor()
	done := make(chan error, 1)
	go func() {
		rec, err := tl.Next(ctx)
		if err == nil && !bytes.Equal(rec.Payload, []byte("late")) {
			err = fmt.Errorf("late record = %q", rec.Payload)
		}
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := l.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	tl2 := NewTailer(dir, resume, TailerOptions{Poll: time.Millisecond})
	defer tl2.Close()
	rec, err := tl2.Next(ctx)
	if err != nil || !bytes.Equal(rec.Payload, []byte("late")) {
		t.Fatalf("resumed tailer got %q, %v", rec.Payload, err)
	}
	if pos := l.Position(); pos != tl2.Cursor() {
		t.Fatalf("Position() = %v, caught-up cursor = %v", pos, tl2.Cursor())
	}
}

// TestTailerRotationUnderConcurrentAppenders is the exactly-once contract
// under the worst interleaving: concurrent appenders on one log,
// segments small enough to rotate every few records, and a tailer
// racing the appenders across segment boundaries. The tailer must see
// every record exactly once, in exactly the on-disk order.
func TestTailerRotationUnderConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{
		Sync:            SyncAlways,
		SegmentMaxBytes: 256, // rotate every few records
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	const appenders, perAppender = 4, 60
	total := appenders * perAppender

	type seen struct {
		payloads [][]byte
		err      error
	}
	out := make(chan seen, 1)
	go func() {
		tl := NewTailer(dir, Cursor{}, TailerOptions{Poll: 500 * time.Microsecond})
		defer tl.Close()
		var s seen
		for len(s.payloads) < total {
			rec, err := tl.Next(ctx)
			if err != nil {
				s.err = err
				break
			}
			s.payloads = append(s.payloads, append([]byte(nil), rec.Payload...))
		}
		if len(tl.Skipped()) != 0 {
			s.err = fmt.Errorf("tailer skipped tears in a crash-free run: %+v", tl.Skipped())
		}
		out <- s
	}()

	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%d-%03d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := <-out
	if s.err != nil {
		t.Fatalf("tailer: %v", s.err)
	}
	if len(s.payloads) != total {
		t.Fatalf("tailer saw %d records, want %d", len(s.payloads), total)
	}

	// Ground truth: the on-disk order a recovering process replays.
	_, wantOrder, rep := replayAll(t, dir)
	if rep.Records != total || len(rep.Truncations) != 0 {
		t.Fatalf("replay report = %+v", rep)
	}
	for i := range wantOrder {
		if !bytes.Equal(s.payloads[i], wantOrder[i]) {
			t.Fatalf("record %d: tailer saw %q, disk order has %q", i, s.payloads[i], wantOrder[i])
		}
	}
	if len(listSegs(t, dir)) < 2 {
		t.Errorf("log never rotated; the test did not cross a segment boundary")
	}
}

// listSegs lists segment seqs in dir for test assertions.
func listSegs(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestTailerSkipsSealedTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "two"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash artifact: a torn frame at the tail of the sealed segment.
	segs := listSegs(t, dir)
	f, err := os.OpenFile((&Log{dir: dir}).segPath(segs[0]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The restarted process appends into a fresh segment.
	l2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	ctx := testCtx(t)
	tl := NewTailer(dir, Cursor{}, TailerOptions{Poll: time.Millisecond})
	defer tl.Close()
	var got []string
	for range 3 {
		rec, err := tl.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, string(rec.Payload))
	}
	want := []string{"one", "two", "three"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("records = %v, want %v", got, want)
		}
	}
	if sk := tl.Skipped(); len(sk) != 1 || sk[0].Seq != segs[0] {
		t.Fatalf("Skipped = %+v, want one tear in seg %d", sk, segs[0])
	}
}

// TestTailerRereadsFrameCompletedBeforeRotation pins the race where
// the tailer's read misses a frame whose append is in flight, the
// append completes, and a later append rotates before the tailer
// scans the directory. The successor then seals the segment, but the
// frame is whole: the tailer must deliver it and everything after it,
// not record a tear and jump to the next segment.
func TestTailerRereadsFrameCompletedBeforeRotation(t *testing.T) {
	dir := t.TempDir()
	// Frames are 8+10 bytes after the 7-byte header: "a" and "b"
	// leave the segment under 60 bytes, "b2" takes it past, and "c"
	// rotates.
	l, err := Open(dir, Options{Sync: SyncNone, SegmentMaxBytes: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll := func(ps ...string) {
		for _, p := range ps {
			if err := l.Append([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll("a---------")

	tl := NewTailer(dir, Cursor{}, TailerOptions{})
	defer tl.Close()
	rec, ok, err := tl.TryNext()
	if err != nil || !ok || string(rec.Payload) != "a---------" {
		t.Fatalf("first TryNext = %q, %v, %v", rec.Payload, ok, err)
	}
	tl.missed = func() {
		tl.missed = nil
		appendAll("b---------", "b2--------", "c---------")
		if segs := listSegs(t, dir); len(segs) != 2 {
			t.Fatalf("segments %v, want a rotation to two", segs)
		}
	}
	var got []string
	for range 3 {
		rec, ok, err := tl.TryNext()
		if err != nil || !ok {
			t.Fatalf("TryNext after %v: ok=%v err=%v", got, ok, err)
		}
		got = append(got, string(rec.Payload))
	}
	if want := []string{"b---------", "b2--------", "c---------"}; !slices.Equal(got, want) {
		t.Fatalf("records = %q, want %q", got, want)
	}
	if sk := tl.Skipped(); len(sk) != 0 {
		t.Fatalf("Skipped = %+v in a crash-free run", sk)
	}
}

func TestTailerTruncatedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := testCtx(t)

	// From the beginning: the pre-checkpoint records are gone.
	tl := NewTailer(dir, Cursor{}, TailerOptions{Poll: time.Millisecond})
	if _, err := tl.Next(ctx); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next from zero = %v, want ErrTruncated", err)
	}
	tl.Close()

	// Resyncing at the checkpoint boundary picks up post-checkpoint
	// records.
	tl2 := NewTailer(dir, Cursor{Seq: l.CheckpointSeq()}, TailerOptions{Poll: time.Millisecond})
	defer tl2.Close()
	rec, err := tl2.Next(ctx)
	if err != nil || string(rec.Payload) != "after" {
		t.Fatalf("post-checkpoint record = %q, %v", rec.Payload, err)
	}
}

func TestTailerContextCancel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	tl := NewTailer(dir, Cursor{}, TailerOptions{Poll: time.Millisecond})
	defer tl.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := tl.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next = %v, want context.Canceled", err)
	}
}

func TestScanBacklog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone, SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if bl, err := ScanBacklog(dir, Cursor{}); err != nil || bl != (Backlog{}) {
		t.Fatalf("empty backlog = %+v, %v", bl, err)
	}
	payload := []byte("0123456789")
	const n = 12
	for range n {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	bl, err := ScanBacklog(dir, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(n * (frameHead + len(payload)))
	if bl.Records != n || bl.Bytes != wantBytes {
		t.Fatalf("backlog = %+v, want %d records / %d bytes", bl, n, wantBytes)
	}

	// Consume half through a tailer; the backlog from its cursor is
	// the other half.
	ctx := testCtx(t)
	tl := NewTailer(dir, Cursor{}, TailerOptions{Poll: time.Millisecond})
	defer tl.Close()
	for range n / 2 {
		if _, err := tl.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	bl, err = ScanBacklog(dir, tl.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if bl.Records != n/2 || bl.Bytes != wantBytes/2 {
		t.Fatalf("half backlog = %+v, want %d records / %d bytes", bl, n/2, wantBytes/2)
	}

	if err := l.WriteCheckpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanBacklog(dir, Cursor{Seq: 1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("pre-checkpoint backlog err = %v, want ErrTruncated", err)
	}
	if bl, err := ScanBacklog(dir, Cursor{Seq: l.CheckpointSeq()}); err != nil || bl != (Backlog{}) {
		t.Fatalf("post-checkpoint backlog = %+v, %v", bl, err)
	}
}

// TestTailerTryNextNeverWaits pins the non-blocking read the cluster
// shipper drains with: nothing on disk (no directory, an empty log, a
// drained tail) is ok=false with no error, and every record is
// delivered once, in order, across segment rotations, with the cursor
// its Append returned.
func TestTailerTryNextNeverWaits(t *testing.T) {
	dir := t.TempDir()
	tl := NewTailer(dir, Cursor{}, TailerOptions{})
	defer tl.Close()
	if _, ok, err := tl.TryNext(); ok || err != nil {
		t.Fatalf("TryNext on a missing directory = ok %v, err %v; want nothing", ok, err)
	}
	l, err := Open(dir, Options{Sync: SyncNone, SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var want []string
	var ends []Cursor
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("record-%d", i)
		c, err := l.AppendCursor([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		want, ends = append(want, p), append(ends, c)
	}
	if ends[len(ends)-1].Seq == ends[0].Seq {
		t.Fatal("appends never rotated; the test needs several segments")
	}
	for i, p := range want {
		rec, ok, err := tl.TryNext()
		if err != nil || !ok {
			t.Fatalf("record %d: ok %v, err %v", i, ok, err)
		}
		if string(rec.Payload) != p || (Cursor{Seq: rec.Seq, Off: rec.End}) != ends[i] {
			t.Fatalf("record %d = %q ending %d:%d; want %q ending %s", i, rec.Payload, rec.Seq, rec.End, p, ends[i])
		}
	}
	if _, ok, err := tl.TryNext(); ok || err != nil {
		t.Fatalf("TryNext past the tail = ok %v, err %v; want nothing", ok, err)
	}
	if err := l.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := tl.TryNext(); err != nil || !ok || string(rec.Payload) != "late" {
		t.Fatalf("TryNext after a late append = %q, ok %v, err %v", rec.Payload, ok, err)
	}
}
