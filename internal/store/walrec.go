package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/snap"
	"ses/internal/solver"
)

// WAL record payloads: one kind byte followed by a kind-specific
// body. The bodies reuse the codecs the serving layer already
// speaks — the snap binary snapshot for whole-session images
// (create, restore, checkpoint entries) and the Mutation JSON
// tagged union for batches — so seswal dumps and daemon wire traffic
// describe sessions the same way.
//
// Record kinds are part of the WAL format: adding a kind is additive
// (old readers reject unknown kinds loudly), changing a body's
// meaning bumps the wal framing version (ses/internal/wal.Version).
//
// Binary snapshots carry their own layout in their header byte (see
// ses/internal/snap), so a new snapshot layout leaves the framing
// version alone. Snapshots are written in the hand-written layout
// (header byte 0x82) and read in it or as the gob payloads of earlier
// builds (header bytes 1 and 2). An earlier build handed a record or
// checkpoint in the new layout fails it with snap.ErrVersion rather
// than misreading it, which is why wal.Version stays 1: the frames
// did not change, and an old reader already refuses what it cannot
// read.
const (
	// recCreate logs a session creation; body = binary snapshot of the
	// fresh session (name, k, objective, instance, empty schedule).
	recCreate byte = 1
	// recDelete logs a deletion; body = the raw session name.
	recDelete byte = 2
	// recBatch logs one ApplyBatch: the mutations that were actually
	// applied and, when the batch's resolve committed, the commit
	// stamp. Body = JSON batchRec.
	recBatch byte = 3
	// recResolve logs one committed Resolve; body = JSON resolveRec.
	recResolve byte = 4
	// recRestore logs a snapshot restore; body = one replace flag byte
	// + binary snapshot.
	recRestore byte = 5
	// recAdopt logs a failover takeover: a replacing restore that also
	// carries the session's store-level counters, so a promoted session
	// is indistinguishable from the acknowledged original — Meta
	// included. Body = 24 bytes of counters (resolves, mutations,
	// batches, little-endian) + binary snapshot. Written by builds
	// before promotion fencing; still decoded (as epoch 0), no longer
	// written.
	recAdopt byte = 6
	// recAdoptEpoch is recAdopt plus the promotion epoch that fences
	// stale primaries: body = 32 bytes (resolves, mutations, batches,
	// epoch, little-endian) + binary snapshot.
	recAdoptEpoch byte = 7
)

// commitStamp is the physical outcome of one committed resolve. A
// batch/resolve record pairs the logical mutations with this stamp so
// recovery installs exactly the acknowledged schedule — including
// deadline-stopped best-so-far schedules a re-run could not
// reproduce — instead of re-solving.
type commitStamp struct {
	Schedule []snap.Assign `json:"schedule,omitempty"`
	Utility  float64       `json:"utility"`
	Stopped  string        `json:"stopped,omitempty"`
	Counters snap.Counters `json:"counters"`
}

// stampOf reads a scheduler's committed outcome into a stamp.
func stampOf(sched *session.Scheduler) *commitStamp {
	schedule, utility, stopped, totals := sched.Committed()
	st := &commitStamp{
		Utility: utility,
		Stopped: stopped,
		Counters: snap.Counters{
			InitialScores: totals.InitialScores,
			ScoreUpdates:  totals.ScoreUpdates,
			Pops:          totals.Pops,
			ListScans:     totals.ListScans,
			Moves:         totals.Moves,
		},
	}
	for _, a := range schedule {
		st.Schedule = append(st.Schedule, snap.Assign{E: a.Event, T: a.Interval})
	}
	return st
}

// install applies the stamp to a scheduler during replay: the
// recorded schedule, utility, stop reason and cumulative counters are
// installed verbatim (after feasibility validation in InstallCommit).
func (c *commitStamp) install(sched *session.Scheduler) error {
	assgn := make([]core.Assignment, len(c.Schedule))
	for i, a := range c.Schedule {
		assgn[i] = core.Assignment{Event: a.E, Interval: a.T}
	}
	return sched.InstallCommit(assgn, c.Utility, c.Stopped, c.counters())
}

// batchRec is the JSON body of a recBatch record. Muts holds the
// applied prefix of the batch (all of it when the batch succeeded);
// Commit is nil when the batch staged mutations without committing
// (mutation error after a valid prefix, or a resolve aborted by
// context cancellation).
type batchRec struct {
	Name   string       `json:"name"`
	Muts   []Mutation   `json:"muts"`
	Commit *commitStamp `json:"commit,omitempty"`
	// Trace carries the committing request's trace ID ("" when
	// untraced; omitted so untraced records are byte-identical to
	// pre-tracing ones). Followers applying a shipped record attach
	// their replication.apply span to it.
	Trace string `json:"trace,omitempty"`
}

// resolveRec is the JSON body of a recResolve record.
type resolveRec struct {
	Name   string      `json:"name"`
	Commit commitStamp `json:"commit"`
	// Trace mirrors batchRec.Trace.
	Trace string `json:"trace,omitempty"`
}

// encodeSnapshotRecord frames a session state as a kind + binary
// snapshot payload (with flag or counter bytes for recRestore and
// recAdoptEpoch), in one exactly sized allocation.
func encodeSnapshotRecord(kind byte, flags []byte, name string, st *session.State) ([]byte, error) {
	doc, err := snap.FromState(name, st)
	if err != nil {
		return nil, err
	}
	n, err := snap.BinarySize(doc)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+len(flags)+n)
	b = append(append(b, kind), flags...)
	return snap.AppendBinary(b, doc)
}

func encodeCreateRecord(name string, st *session.State) ([]byte, error) {
	return encodeSnapshotRecord(recCreate, nil, name, st)
}

func encodeRestoreRecord(name string, st *session.State, replace bool) ([]byte, error) {
	flag := byte(0)
	if replace {
		flag = 1
	}
	return encodeSnapshotRecord(recRestore, []byte{flag}, name, st)
}

func encodeAdoptRecord(name string, st *session.State, resolves, mutations, batches, epoch uint64) ([]byte, error) {
	var counters [32]byte
	binary.LittleEndian.PutUint64(counters[0:8], resolves)
	binary.LittleEndian.PutUint64(counters[8:16], mutations)
	binary.LittleEndian.PutUint64(counters[16:24], batches)
	binary.LittleEndian.PutUint64(counters[24:32], epoch)
	return encodeSnapshotRecord(recAdoptEpoch, counters[:], name, st)
}

func encodeDeleteRecord(name string) []byte {
	return append([]byte{recDelete}, name...)
}

func encodeBatchRecord(r batchRec) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append([]byte{recBatch}, body...), nil
}

func encodeResolveRecord(r resolveRec) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append([]byte{recResolve}, body...), nil
}

// WALRecord is one decoded store-layer log record, as surfaced to the
// seswal inspector and consumed by recovery.
type WALRecord struct {
	// Kind is the record kind name: "create", "delete", "batch",
	// "resolve", "restore" or "adopt".
	Kind string `json:"kind"`
	// Name is the session the record concerns.
	Name string `json:"name"`
	// Replace is the restore record's replace flag.
	Replace bool `json:"replace,omitempty"`
	// Snapshot carries the session image of create/restore records.
	Snapshot *snap.Snapshot `json:"snapshot,omitempty"`
	// Muts carries a batch record's applied mutations.
	Muts []Mutation `json:"muts,omitempty"`
	// Commit carries the commit stamp of a committed batch/resolve
	// (nil for a staged-only batch).
	Commit *commitStamp `json:"commit,omitempty"`
	// Resolves, Mutations and Batches carry an adopt record's
	// store-level counters.
	Resolves  uint64 `json:"resolves,omitempty"`
	Mutations uint64 `json:"mutations,omitempty"`
	Batches   uint64 `json:"batches,omitempty"`
	// Epoch is an adopt record's promotion epoch (0 for records
	// written before promotion fencing existed).
	Epoch uint64 `json:"epoch,omitempty"`
	// Trace is the committing request's trace ID, when the record was
	// written under an active trace.
	Trace string `json:"trace,omitempty"`
}

// DecodeWALRecord parses one WAL record payload written by the
// durable store. It validates structure, not session semantics —
// recovery does the latter.
func DecodeWALRecord(payload []byte) (*WALRecord, error) {
	if len(payload) == 0 {
		return nil, errors.New("store: empty WAL record")
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case recCreate:
		doc, err := snap.ParseBinary(body)
		if err != nil {
			return nil, fmt.Errorf("store: create record: %w", err)
		}
		return &WALRecord{Kind: "create", Name: doc.Name, Snapshot: doc}, nil
	case recDelete:
		if len(body) == 0 {
			return nil, errors.New("store: delete record without a name")
		}
		return &WALRecord{Kind: "delete", Name: string(body)}, nil
	case recBatch:
		var r batchRec
		if err := strictUnmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("store: batch record: %w", err)
		}
		if r.Name == "" {
			return nil, errors.New("store: batch record without a name")
		}
		return &WALRecord{Kind: "batch", Name: r.Name, Muts: r.Muts, Commit: r.Commit, Trace: r.Trace}, nil
	case recResolve:
		var r resolveRec
		if err := strictUnmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("store: resolve record: %w", err)
		}
		if r.Name == "" {
			return nil, errors.New("store: resolve record without a name")
		}
		c := r.Commit
		return &WALRecord{Kind: "resolve", Name: r.Name, Commit: &c, Trace: r.Trace}, nil
	case recRestore:
		if len(body) < 1 {
			return nil, errors.New("store: restore record without a flag byte")
		}
		doc, err := snap.ParseBinary(body[1:])
		if err != nil {
			return nil, fmt.Errorf("store: restore record: %w", err)
		}
		return &WALRecord{Kind: "restore", Name: doc.Name, Replace: body[0] == 1, Snapshot: doc}, nil
	case recAdopt, recAdoptEpoch:
		head := 24
		if kind == recAdoptEpoch {
			head = 32
		}
		if len(body) < head {
			return nil, errors.New("store: adopt record without its counters")
		}
		doc, err := snap.ParseBinary(body[head:])
		if err != nil {
			return nil, fmt.Errorf("store: adopt record: %w", err)
		}
		rec := &WALRecord{
			Kind:      "adopt",
			Name:      doc.Name,
			Replace:   true,
			Snapshot:  doc,
			Resolves:  binary.LittleEndian.Uint64(body[0:8]),
			Mutations: binary.LittleEndian.Uint64(body[8:16]),
			Batches:   binary.LittleEndian.Uint64(body[16:24]),
		}
		if kind == recAdoptEpoch {
			rec.Epoch = binary.LittleEndian.Uint64(body[24:32])
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("store: unknown WAL record kind %d", kind)
	}
}

// strictUnmarshal decodes JSON rejecting unknown fields, matching the
// snapshot codec's strictness: an unknown field in a CRC-clean record
// means a writer newer than this reader, and that must surface.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Checkpoint payload: a 4-byte count, then per session one JSON meta
// header and one binary snapshot, both length-prefixed. The meta
// header carries the store-level counters that live outside
// session.State, so Meta survives recovery too.

// WALCheckpointEntry is one session image inside a checkpoint.
type WALCheckpointEntry struct {
	Name      string `json:"name"`
	Resolves  uint64 `json:"resolves"`
	Mutations uint64 `json:"mutations"`
	Batches   uint64 `json:"batches"`
	// Epoch is the store's promotion epoch at checkpoint time, so a
	// checkpoint that truncates adopt records does not also truncate
	// the fencing epoch they carried. Absent (0) in checkpoints from
	// pre-fencing builds.
	Epoch uint64 `json:"epoch,omitempty"`
	// Snapshot is the session's full state.
	Snapshot *snap.Snapshot `json:"snapshot,omitempty"`
}

// encodeCheckpoint serializes the entries into one exactly sized
// allocation.
func encodeCheckpoint(entries []WALCheckpointEntry) ([]byte, error) {
	metas := make([][]byte, len(entries))
	sizes := make([]int, len(entries))
	total := 4
	for i, e := range entries {
		doc := e.Snapshot
		e.Snapshot = nil
		meta, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		n, err := snap.BinarySize(doc)
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint entry %q: %w", e.Name, err)
		}
		metas[i], sizes[i] = meta, n
		total += 4 + len(meta) + 4 + n
	}
	b := make([]byte, 0, total)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for i, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(metas[i])))
		b = append(b, metas[i]...)
		b = binary.LittleEndian.AppendUint32(b, uint32(sizes[i]))
		var err error
		if b, err = snap.AppendBinary(b, e.Snapshot); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeWALCheckpoint parses a checkpoint payload back into entries.
// The entries share no memory with data.
func DecodeWALCheckpoint(data []byte) ([]WALCheckpointEntry, error) {
	if len(data) < 4 {
		return nil, errors.New("store: checkpoint too short for its count")
	}
	count, rest := binary.LittleEndian.Uint32(data), data[4:]
	// Each entry takes at least its two 4-byte block lengths.
	if uint64(count) > uint64(len(rest)/8) {
		return nil, fmt.Errorf("store: checkpoint claims %d sessions in %d bytes", count, len(data))
	}
	entries := make([]WALCheckpointEntry, 0, count)
	readBlock := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, errors.New("short block length")
		}
		ln := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(ln) > uint64(len(rest)) {
			return nil, fmt.Errorf("block length %d exceeds remaining %d bytes", ln, len(rest))
		}
		block := rest[:ln]
		rest = rest[ln:]
		return block, nil
	}
	for i := uint32(0); i < count; i++ {
		meta, err := readBlock()
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint entry %d: %v", i, err)
		}
		var e WALCheckpointEntry
		if err := strictUnmarshal(meta, &e); err != nil {
			return nil, fmt.Errorf("store: checkpoint entry %d meta: %w", i, err)
		}
		body, err := readBlock()
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint entry %d: %v", i, err)
		}
		doc, err := snap.ParseBinary(body)
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint entry %d snapshot: %w", i, err)
		}
		e.Snapshot = doc
		entries = append(entries, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after checkpoint entries", len(rest))
	}
	return entries, nil
}

// countersOf converts a stamp's wire counters back to solver form.
func (c *commitStamp) counters() solver.Counters {
	return solver.Counters{
		InitialScores: c.Counters.InitialScores,
		ScoreUpdates:  c.Counters.ScoreUpdates,
		Pops:          c.Counters.Pops,
		ListScans:     c.Counters.ListScans,
		Moves:         c.Counters.Moves,
	}
}
