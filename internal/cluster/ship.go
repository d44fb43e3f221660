package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ses/internal/store"
	"ses/internal/wal"
)

// ShipperOptions configures a Shipper; the zero value is usable.
type ShipperOptions struct {
	// Heartbeat is how often each stream reports backlog (0 = 500ms).
	Heartbeat time.Duration
	// Logf receives connection lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o ShipperOptions) heartbeat() time.Duration {
	if o.Heartbeat <= 0 {
		return 500 * time.Millisecond
	}
	return o.Heartbeat
}

// shipFallback is how often a ship loop rechecks every shard's
// watermark without a commit signal, so a missed wake cannot strand a
// record.
const shipFallback = time.Second

// CommitSource is what a Shipper needs from the primary's store: the
// per-shard committed watermark and the signal that it moved.
// *store.Durable implements it.
type CommitSource interface {
	// Commits returns a channel closed by the next commit to any
	// shard; the shipper takes it before reading watermarks.
	Commits() <-chan struct{}
	// ShardCommitted is the cursor just past shard i's last committed
	// record.
	ShardCommitted(i int) wal.Cursor
}

// Shipper serves a primary's replication stream: one HTTP response
// per follower, multiplexing all shard logs. Each stream runs one
// loop that sleeps until the store signals a commit, then reads every
// shard behind its committed watermark straight from the data
// directory and ships it — up to the watermark and never past it, so
// a record leaves the primary only once its Append was acknowledged
// (after its fsync under sync=always).
type Shipper struct {
	dir  string
	src  CommitSource
	opts ShipperOptions
	// fallback is the ship loop's recheck period (shipFallback; tests
	// shorten it).
	fallback time.Duration

	records atomic.Uint64 // total records shipped across streams
	bytes   atomic.Uint64
	// scanErrors counts heartbeat backlog scans that failed for a
	// reason other than checkpoint truncation — a sick disk must not
	// masquerade as zero lag.
	scanErrors atomic.Uint64

	mu      sync.Mutex
	streams map[*shipStream]struct{}
}

// NewShipper ships the WAL under a durable store's data directory,
// following src's committed watermarks.
func NewShipper(dir string, src CommitSource, opts ShipperOptions) *Shipper {
	return &Shipper{dir: dir, src: src, opts: opts, fallback: shipFallback,
		streams: make(map[*shipStream]struct{})}
}

// shipStream is one follower connection. Only its ship loop writes
// the response, the tailers and the cursors; mu orders the cursor and
// backlog writes with Status readers.
type shipStream struct {
	node  string
	since time.Time

	records atomic.Uint64 // records shipped on this stream

	w       http.ResponseWriter
	flush   func()
	tailers [store.NumShards]*wal.Tailer // opened on a shard's first visit

	mu      sync.Mutex
	cursors [store.NumShards]wal.Cursor // shipped-so-far
	backlog wal.Backlog                 // last heartbeat's measured backlog
}

// send frames one message onto the stream and flushes it.
func (s *shipStream) send(kind byte, shard int, a, b uint64, payload []byte) error {
	if err := writeMsg(s.w, kind, shard, a, b, payload); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *shipStream) setCursor(shard int, c wal.Cursor) {
	s.mu.Lock()
	s.cursors[shard] = c
	s.mu.Unlock()
}

func (s *shipStream) cursor(shard int) wal.Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursors[shard]
}

// StreamStatus describes one connected follower.
type StreamStatus struct {
	Node   string  `json:"node"`
	AgeSec float64 `json:"age_sec"`
	// Cursors counts shards the stream has shipped past the zero
	// cursor — actual progress, not the shard constant.
	Cursors int `json:"shards"`
	// Records is how many records this stream has shipped.
	Records uint64 `json:"records"`
	// BacklogRecords/Bytes are the last heartbeat's measured backlog:
	// committed records the stream has not shipped yet.
	BacklogRecords int64 `json:"backlog_records"`
	BacklogBytes   int64 `json:"backlog_bytes"`
	Shipping       bool  `json:"shipping"`
}

// Status lists the active streams with their real per-stream state.
func (sh *Shipper) Status() []StreamStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]StreamStatus, 0, len(sh.streams))
	for s := range sh.streams {
		st := StreamStatus{
			Node:     s.node,
			AgeSec:   time.Since(s.since).Seconds(),
			Records:  s.records.Load(),
			Shipping: true,
		}
		s.mu.Lock()
		for _, c := range s.cursors {
			if !c.IsZero() {
				st.Cursors++
			}
		}
		st.BacklogRecords = int64(s.backlog.Records)
		st.BacklogBytes = int64(s.backlog.Bytes)
		s.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// ScanErrors reports backlog scans that failed for non-truncation
// reasons (the backlog_scan_errors metric).
func (sh *Shipper) ScanErrors() uint64 { return sh.scanErrors.Load() }

// Shipped returns the cumulative records and bytes shipped across all
// streams since the process started.
func (sh *Shipper) Shipped() (records, bytes uint64) {
	return sh.records.Load(), sh.bytes.Load()
}

func (sh *Shipper) logf(format string, args ...any) {
	if sh.opts.Logf != nil {
		sh.opts.Logf(format, args...)
	}
}

// ServeHTTP handles POST /v1/replication/stream: it parses the
// follower's cursors and streams until the client disconnects.
func (sh *Shipper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req streamReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad stream request: "+err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	st := &shipStream{node: req.Node, since: time.Now(), w: w, flush: flusher.Flush}
	for shard, spec := range req.Cursors {
		i, cur, err := parseShardCursor(shard, spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st.cursors[i] = cur
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ses-Replication", "1")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sh.mu.Lock()
	sh.streams[st] = struct{}{}
	sh.mu.Unlock()
	sh.logf("cluster: follower %q connected", req.Node)
	defer func() {
		sh.mu.Lock()
		delete(sh.streams, st)
		sh.mu.Unlock()
		sh.logf("cluster: follower %q disconnected", req.Node)
	}()

	if err := sh.ship(r.Context(), st); err != nil && r.Context().Err() == nil {
		sh.logf("cluster: stream to %q: %v", st.node, err)
	}
}

// ship is a stream's one loop. It reports the backlog at connect
// (before the catch-up pass, so a follower starting far behind knows
// it), then repeatedly ships every shard up to its watermark and
// sleeps until the store signals a commit, the fallback tick fires or
// a heartbeat is due. It returns when the client goes away or a send
// fails.
func (sh *Shipper) ship(ctx context.Context, st *shipStream) error {
	defer func() {
		for _, t := range st.tailers {
			if t != nil {
				t.Close()
			}
		}
	}()
	beat := time.NewTicker(sh.opts.heartbeat())
	defer beat.Stop()
	fallback := time.NewTicker(sh.fallback)
	defer fallback.Stop()
	if err := sh.heartbeat(st); err != nil {
		return err
	}
	for {
		// Take the signal before reading any watermark: a commit that
		// lands during the pass then wakes the select below.
		wake := sh.src.Commits()
		for i := range st.tailers {
			if err := sh.shipShard(st, i); err != nil {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		case <-fallback.C:
		case <-beat.C:
			if err := sh.heartbeat(st); err != nil {
				return err
			}
		}
	}
}

// shipShard ships one shard from the stream's cursor up to the
// shard's committed watermark, resyncing through the checkpoint when
// the cursor falls below the truncation horizon. A shard already at
// its watermark costs one comparison.
func (sh *Shipper) shipShard(st *shipStream, shard int) error {
	limit := sh.src.ShardCommitted(shard)
	cur := st.cursor(shard)
	for cur.Before(limit) {
		t := st.tailers[shard]
		if t == nil {
			t = wal.NewTailer(store.ShardDir(sh.dir, shard), cur, wal.TailerOptions{})
			st.tailers[shard] = t
		}
		rec, ok, err := t.TryNext()
		if errors.Is(err, wal.ErrTruncated) {
			t.Close()
			st.tailers[shard] = nil
			next, err := sh.resync(st, shard, cur)
			if err != nil || next == cur {
				return err // no checkpoint covers the gap yet; the next pass retries
			}
			cur = next
			continue
		}
		if err != nil || !ok {
			return err
		}
		if err := st.send(msgRecord, shard, rec.Seq, uint64(rec.End), rec.Payload); err != nil {
			return err
		}
		sh.records.Add(1)
		st.records.Add(1)
		sh.bytes.Add(uint64(len(rec.Payload)))
		cur = wal.Cursor{Seq: rec.Seq, Off: rec.End}
		st.setCursor(shard, cur)
	}
	return nil
}

// resync ships the shard's checkpoint image when cur predates it (a
// cursor below the horizon, or a zero cursor on a checkpointed log)
// and returns the cursor to resume from; cur itself when no
// checkpoint covers it.
func (sh *Shipper) resync(st *shipStream, shard int, cur wal.Cursor) (wal.Cursor, error) {
	l, err := wal.Open(store.ShardDir(sh.dir, shard), wal.Options{})
	if err != nil {
		return cur, err
	}
	// Only the checkpoint image and its seq are needed; close the log
	// at once so a long-lived stream that resyncs many times does not
	// accumulate open segment handles.
	ck, data := l.CheckpointSeq(), l.Checkpoint()
	l.Close()
	if ck == 0 || cur.Seq >= ck {
		return cur, nil
	}
	if err := st.send(msgCheckpoint, shard, ck, 0, data); err != nil {
		return cur, err
	}
	sh.bytes.Add(uint64(len(data)))
	cur = wal.Cursor{Seq: ck}
	st.setCursor(shard, cur)
	return cur, nil
}

// heartbeat measures the committed backlog the stream has not shipped
// yet (exactly, by walking frame headers from each shipped cursor) and
// sends it as one aggregated message. A shard shipped up to its
// watermark has no committed backlog and is not scanned.
func (sh *Shipper) heartbeat(st *shipStream) error {
	var total wal.Backlog
	for i := 0; i < store.NumShards; i++ {
		cur := st.cursor(i)
		if !cur.Before(sh.src.ShardCommitted(i)) {
			continue
		}
		bl, err := wal.ScanBacklog(store.ShardDir(sh.dir, i), cur)
		if err != nil {
			// Truncation races are routine (the ship loop resyncs
			// through the checkpoint); anything else is a real scan
			// failure and must be counted, not folded into zero lag.
			if !errors.Is(err, wal.ErrTruncated) {
				sh.scanErrors.Add(1)
			}
			continue
		}
		total.Records += bl.Records
		total.Bytes += bl.Bytes
	}
	st.mu.Lock()
	st.backlog = total
	st.mu.Unlock()
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[0:8], uint64(total.Records))
	binary.LittleEndian.PutUint64(payload[8:16], uint64(total.Bytes))
	return st.send(msgHeartbeat, 0, 0, 0, payload[:])
}

// parseShardCursor parses one entry of streamReq.Cursors.
func parseShardCursor(shard, spec string) (int, wal.Cursor, error) {
	i, err := strconv.Atoi(shard)
	if err != nil || i < 0 || i >= store.NumShards {
		return 0, wal.Cursor{}, errors.New("cluster: bad shard index " + shard)
	}
	cur, err := wal.ParseCursor(spec)
	if err != nil {
		return 0, wal.Cursor{}, err
	}
	return i, cur, nil
}
