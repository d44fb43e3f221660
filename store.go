package ses

import (
	"errors"
	"io"

	"ses/internal/session"
	"ses/internal/snap"
	"ses/internal/store"
	"ses/internal/wal"
)

// Store is a sharded, thread-safe registry of named scheduling
// sessions — the in-process serving layer behind cmd/sesd. Sessions
// are spread over striped locks: sessions of one shard serialize
// their commits, a batch is atomic, and reads (lookup, metadata,
// snapshots) never wait behind a running solve.
//
//	st := ses.NewStore(ses.WithWorkers(4))
//	st.Create("fest", inst, 20)
//	res, _ := st.ApplyBatch(ctx, "fest", []ses.Mutation{
//		ses.AddEventOp(ev, interest),
//		ses.PinOp(headliner, fridayNight),
//	})                                     // one incremental resolve
//	state, _ := st.Snapshot("fest")        // atomic state export
//	other.Restore("fest", state, false)    // warm restart elsewhere
type Store = store.Store

// SessionState is the portable state of one session: instance,
// constraints, committed schedule. Produced by Store.Snapshot (or
// Scheduler.ExportState), consumed by Store.Restore and the snapshot
// codecs.
type SessionState = session.State

// SessionMeta is the immutable, lock-free metadata snapshot of one
// session; see Store.Meta and Store.Metas.
type SessionMeta = store.Meta

// Mutation is one portfolio change in a Store.ApplyBatch group; build
// them with the *Op constructors below.
type Mutation = store.Mutation

// BatchResult reports one committed batch: ids assigned by add
// mutations and the Delta of the single resolve that committed the
// group.
type BatchResult = store.BatchResult

// Snapshot is the versioned wire document of a serialized session;
// see EncodeSnapshot/DecodeSnapshot and the ses/internal/snap version
// policy.
type Snapshot = snap.Snapshot

// SnapshotVersion is the snapshot format version this build reads and
// writes.
const SnapshotVersion = snap.Version

// Store registry errors.
var (
	// ErrSessionExists reports a Store.Create against a taken name.
	ErrSessionExists = store.ErrExists
	// ErrSessionNotFound reports a Store operation on an unknown name.
	ErrSessionNotFound = store.ErrNotFound
)

// NewStore returns an empty session store. The options (workers,
// objective, progress) configure every session the store creates or
// restores.
func NewStore(opts ...Option) *Store {
	c := resolve(opts)
	st := store.New(c.sessionOptions())
	if sink := c.sinkFor(); sink != nil {
		st.SetSink(sink)
	}
	return st
}

// DurableStore is a Store whose acknowledged state changes are
// recorded in a per-shard write-ahead log before each call returns,
// and which recovers them exactly — schedule, utility, objective,
// counters — after a crash. Open one with OpenStore. Its embedded
// *Store (st.Store) is the whole Store API, writing through to the
// log, and goes wherever a *Store does; DurableStore adds Checkpoint
// (truncate the logs now) and Close (final checkpoint + shutdown).
//
//	st, _ := ses.OpenStore(ses.WithDurability("/var/lib/sesd"),
//		ses.WithSyncPolicy(ses.SyncInterval))
//	defer st.Close()                       // final checkpoint
//	st.Create("fest", inst, 20)            // logged before returning
//	st.ApplyBatch(ctx, "fest", muts)       // mutations + commit stamp logged
//	// kill -9 here: the next OpenStore replays the log and every
//	// acknowledged batch is still there, byte-identical.
type DurableStore = store.Durable

// ErrStoreClosed reports an operation on a closed DurableStore.
var ErrStoreClosed = store.ErrStoreClosed

// OpenStore opens (creating or recovering) a durable session store.
// WithDurability is required; WithSyncPolicy, WithSyncInterval and
// WithCheckpointEvery tune the log, and the session options (workers,
// objective, progress) apply to every session exactly like
// NewStore's.
func OpenStore(opts ...Option) (*DurableStore, error) {
	c := resolve(opts)
	if c.durableDir == "" {
		return nil, errors.New("ses: OpenStore requires WithDurability(dir); use NewStore for a memory-only store")
	}
	return store.OpenDurable(c.durableDir, store.DurableOptions{
		Session:         c.sessionOptions(),
		Sync:            c.syncPolicy,
		SyncInterval:    c.syncInterval,
		CheckpointEvery: c.checkpointEvery,
		Sink:            c.sinkFor(),
	})
}

// WALStats are a durable store's cumulative append-path counters
// (appends and fsyncs); see DurableStore.WALStats and the seswal stats
// command.
type WALStats = wal.Stats

// Pipeline runs mutations and resolves for many sessions on a bounded
// worker pool, coalescing back-to-back work on the same session into
// one incremental resolve while independent sessions resolve on
// separate cores. Results are byte-identical to serial execution
// (test-enforced); see the store package's Pipeline doc for the exact
// merge semantics.
//
//	p := ses.NewPipeline(st, ses.WithResolveWorkers(4))
//	defer p.Close()
//	res, err := p.ApplyBatch(ctx, "fest", muts) // may share a resolve
type Pipeline = store.Pipeline

// PipelineBackend is the store surface a Pipeline drives; *Store
// satisfies it, and so does *DurableStore through its embedded Store.
type PipelineBackend = store.Backend

// PipelineMetrics is a point-in-time pipeline load snapshot (queue
// depth, coalescing and rejection counters); see Pipeline.Metrics.
type PipelineMetrics = store.PipelineMetrics

// Pipeline admission errors.
var (
	// ErrPipelineSaturated reports an admission-control rejection: the
	// request was never executed and may be retried.
	ErrPipelineSaturated = store.ErrPipelineSaturated
	// ErrPipelineClosed reports a submit to a closed Pipeline.
	ErrPipelineClosed = store.ErrPipelineClosed
)

// NewPipeline starts a resolve pipeline over backend. WithResolveWorkers
// and WithResolveQueue tune the worker pool and admission control;
// Close releases the workers (the backend stays open).
func NewPipeline(backend PipelineBackend, opts ...Option) *Pipeline {
	c := resolve(opts)
	return store.NewPipeline(backend, store.PipelineOptions{
		Workers:  c.resolveWorkers,
		MaxQueue: c.resolveQueue,
	})
}

// Mutation constructors for Store.ApplyBatch.
var (
	// AddEventOp adds a candidate event with per-user interest.
	AddEventOp = store.AddEvent
	// CancelEventOp withdraws a candidate event.
	CancelEventOp = store.CancelEvent
	// UpdateInterestOp sets µ(user, event); 0 removes the entry.
	UpdateInterestOp = store.UpdateInterest
	// AddCompetingOp registers a third-party event with per-user
	// interest.
	AddCompetingOp = store.AddCompeting
	// PinOp forces an event to an interval.
	PinOp = store.Pin
	// UnpinOp releases a pin.
	UnpinOp = store.Unpin
	// ForbidOp excludes one (event, interval) assignment.
	ForbidOp = store.Forbid
	// AllowOp removes a Forbid.
	AllowOp = store.Allow
	// SetKOp retargets the schedule-size budget.
	SetKOp = store.SetK
)

// NewSnapshot wraps a session state in the versioned snapshot
// document; name tags the snapshot for restore (it may be empty).
func NewSnapshot(name string, st *SessionState) (*Snapshot, error) {
	return snap.FromState(name, st)
}

// EncodeSnapshot writes a snapshot as JSON — the wire form served by
// cmd/sesd. The encoding is canonical: the same state always produces
// the same bytes.
func EncodeSnapshot(w io.Writer, s *Snapshot) error { return snap.EncodeJSON(w, s) }

// DecodeSnapshot reads a JSON snapshot, rejecting unknown fields and
// unknown versions.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) { return snap.DecodeJSON(r) }

// EncodeSnapshotBinary writes the compact binary at-rest form, the
// one WAL records and checkpoints carry: the magic header, a header
// byte naming the version and layout, then a hand-written payload
// whose interest matrices are little-endian CSR arrays. Builds before
// this layout cannot read it (they answer ErrVersion).
func EncodeSnapshotBinary(w io.Writer, s *Snapshot) error { return snap.EncodeBinary(w, s) }

// DecodeSnapshotBinary reads r to its end and decodes the binary
// snapshot it holds: one written by EncodeSnapshotBinary, or the gob
// payload of an earlier build, which is still read but no longer
// written.
func DecodeSnapshotBinary(r io.Reader) (*Snapshot, error) { return snap.DecodeBinary(r) }

// RestoreScheduler rebuilds a standalone Scheduler (outside any
// Store) from a snapshot state, validating it fully; the same options
// as NewScheduler apply.
func RestoreScheduler(st *SessionState, opts ...Option) (*Scheduler, error) {
	c := resolve(opts)
	return session.FromState(st, c.sessionOptions())
}
