// Package store implements the concurrent serving layer behind
// ses.Store: a sharded, thread-safe registry of named scheduling
// sessions. It is the piece that turns the single-session
// ses.Scheduler into a multi-organizer service — many event
// portfolios scheduled concurrently in one process, each behind its
// own session lock, with reads that never wait behind a running
// solve.
//
// Concurrency design:
//
//   - Striped locks: sessions are spread over a fixed array of shards
//     by an FNV-1a hash of the session id. Every write (create,
//     restore, adopt, delete, batch, resolve) holds its shard's op
//     lock from start to finish, so sessions of one shard serialize
//     their commits and a batch is atomic; sessions of different
//     shards commit in parallel. Reads never wait: lookups take the
//     shard map's read lock, which a write holds only for the instant
//     it installs or removes a handle.
//   - Lock-free metadata: each session handle carries an
//     atomic.Pointer to an immutable Meta value, replaced by every
//     write. Meta reads load the pointer and never touch the session
//     lock, so dashboards and load balancers can poll a session that
//     is mid-Resolve without waiting.
//   - One commit path: a memory store and a durable one (Durable) run
//     the same write code. A durable store's Store also points at its
//     shard logs; each write then checks the store is neither closed
//     nor poisoned and appends its record before counters, Meta and
//     the sink move. Replay (recovery and followers) runs the same
//     steps, installing each record's commit stamp where a live write
//     resolves.
package store

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/obs"
	"ses/internal/session"
	"ses/internal/snap"
)

// numShards is the stripe width of the registry. Power of two so the
// hash folds with a mask.
const numShards = 64

// Registry errors.
var (
	// ErrExists reports a Create against a name already in use.
	ErrExists = errors.New("store: session already exists")
	// ErrNotFound reports an operation against an unknown session.
	ErrNotFound = errors.New("store: session not found")
)

// Meta is an immutable point-in-time description of one session,
// refreshed after every committed operation. Reads are lock-free and
// never block behind a running Resolve, so the values trail the live
// session by at most one commit.
type Meta struct {
	// Name is the session id.
	Name string
	// Users, Intervals describe the instance dimensions.
	Users, Intervals int
	// Events is |E| as of the last committed operation (grows with
	// AddEvent mutations).
	Events int
	// K is the schedule-size target as of the last committed operation.
	K int
	// Scheduled is the committed schedule size.
	Scheduled int
	// Utility is the objective's value of the committed schedule (Ω
	// under the default omega objective).
	Utility float64
	// Objective is the canonical spec of the session's objective.
	Objective string
	// Stopped is the early-stop reason of the last resolve ("" for a
	// complete one).
	Stopped string
	// Resolves counts committed resolves (batch resolves included).
	Resolves uint64
	// Mutations counts applied mutations (batched ones included).
	Mutations uint64
	// Batches counts committed ApplyBatch calls.
	Batches uint64
}

// handle is one registered session. Only a write holding the shard's
// op lock replaces its Meta, so publications are ordered and each one
// describes a single commit.
type handle struct {
	name  string
	sched *session.Scheduler
	meta  atomic.Pointer[Meta]
}

// counts are a session's store-level counters: Meta's Resolves,
// Mutations and Batches, which adopt records and checkpoint entries
// carry because session.State does not.
type counts struct{ resolves, mutations, batches uint64 }

// counters reads the counters of h's current Meta.
func (h *handle) counters() counts {
	m := h.meta.Load()
	return counts{m.Resolves, m.Mutations, m.Batches}
}

// publish replaces h's Meta with the session's summary and counters c.
func (h *handle) publish(c counts) {
	sum := h.sched.Summary()
	h.meta.Store(&Meta{
		Name:      h.name,
		Users:     sum.Users,
		Intervals: sum.Intervals,
		Events:    sum.Events,
		K:         sum.K,
		Scheduled: sum.Scheduled,
		Utility:   sum.Utility,
		Stopped:   sum.Stopped,
		Objective: sum.Objective,
		Resolves:  c.resolves,
		Mutations: c.mutations,
		Batches:   c.batches,
	})
}

// shard is one stripe of the registry. op serializes the shard's
// writes; mu guards the map, so a lookup waits only while a write
// installs or removes a handle.
type shard struct {
	op       sync.Mutex
	mu       sync.RWMutex
	sessions map[string]*handle
}

// Store is a sharded, thread-safe registry of named scheduling
// sessions. All methods are safe for concurrent use.
type Store struct {
	opts   session.Options
	shards [numShards]shard
	// sink, when installed via SetSink, observes solver progress and
	// committed operations (see Sink).
	sink sinkPtr
	// epoch is the highest promotion epoch observed in applied adopt
	// records and checkpoint entries (see Epoch in replica.go); it
	// fences stale primaries after a contested failover.
	epoch atomic.Uint64
	// log is the write-ahead log of a durable store (see Durable),
	// which every live write appends its record to; nil for a memory
	// store and a follower's replica.
	log *shardLogs
}

// New returns an empty store. Every session the store creates or
// restores uses opts (engine factory, scoring workers, progress).
func New(opts session.Options) *Store {
	s := &Store{opts: opts}
	for i := range s.shards {
		s.shards[i].sessions = make(map[string]*handle)
	}
	return s
}

// shardIndex maps a session id to its stripe; the durable store uses
// the same mapping for its per-shard write-ahead logs, so a session's
// records always land in one log.
func shardIndex(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() & (numShards - 1))
}

// handlesInShard returns stripe i's handles sorted by name, for
// deterministic checkpoint encoding.
func (s *Store) handlesInShard(i int) []*handle {
	sh := &s.shards[i]
	sh.mu.RLock()
	out := make([]*handle, 0, len(sh.sessions))
	for _, h := range sh.sessions {
		out = append(out, h)
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// Create registers a new session over a private copy of inst,
// targeting schedules of up to k events under the store's default
// objective. It fails with ErrExists if the name is taken.
func (s *Store) Create(name string, inst *core.Instance, k int) error {
	return s.CreateWithObjective(name, inst, k, nil)
}

// CreateWithObjective is Create with a per-session objective override
// (nil keeps the store's default). The objective becomes part of the
// session's state and travels in its snapshots. On a durable store
// the create record (a full snapshot of the fresh session) reaches the
// log before the session is installed.
func (s *Store) CreateWithObjective(name string, inst *core.Instance, k int, obj choice.Objective) error {
	opts := s.optsFor(name)
	if obj != nil {
		opts.Objective = obj
	}
	sched, err := session.New(inst, k, opts)
	if err != nil {
		return err
	}
	return s.put(name, sched, false, counts{}, 0, func() ([]byte, error) {
		return encodeCreateRecord(name, sched.ExportState())
	})
}

// Restore installs a session rebuilt from a snapshot state under the
// given name, replacing any existing session with that name (the
// snapshot is the truth). With replace false it behaves like Create
// and fails on collision. A durable store logs the state first, so a
// state it cannot encode leaves the store untouched.
func (s *Store) Restore(name string, st *session.State, replace bool) error {
	sched, err := session.FromState(st, s.optsFor(name))
	if err != nil {
		return err
	}
	return s.put(name, sched, replace, counts{}, 0, func() ([]byte, error) {
		return encodeRestoreRecord(name, st, replace)
	})
}

// Adopt installs a session taken over from a dead peer's replica: a
// replacing restore that also sets the session's meta counters, so
// the promoted copy — and any copy recovered or replicated from its
// record — is indistinguishable from the acknowledged original, Meta
// included. epoch is the promotion epoch the takeover happened under;
// it is logged with the record and raises the store's observed epoch,
// fencing stale primaries.
func (s *Store) Adopt(name string, st *session.State, resolves, mutations, batches, epoch uint64) error {
	sched, err := session.FromState(st, s.optsFor(name))
	if err != nil {
		return err
	}
	return s.put(name, sched, true, counts{resolves, mutations, batches}, epoch, func() ([]byte, error) {
		return encodeAdoptRecord(name, st, resolves, mutations, batches, epoch)
	})
}

// lockShard takes shard i's op lock for a write and, on a durable
// store, checks that the store is neither closed nor poisoned. On
// success the caller unlocks sh.op.
func (s *Store) lockShard(i int) (*shard, error) {
	sh := &s.shards[i]
	sh.op.Lock()
	if s.log != nil {
		if err := s.log.err(); err != nil {
			sh.op.Unlock()
			return nil, err
		}
	}
	return sh, nil
}

// put installs sched under name with counters c: the one way a
// session enters the registry, for creates, restores and adopts and
// for the replay of their records and of checkpoint entries. On a
// durable store a live write's record (nil in replay) is appended
// first, so a record that cannot be encoded or appended leaves the
// registry as it was. epoch raises the store's promotion epoch.
func (s *Store) put(name string, sched *session.Scheduler, replace bool, c counts, epoch uint64, record func() ([]byte, error)) error {
	i := shardIndex(name)
	sh, err := s.lockShard(i)
	if err != nil {
		return err
	}
	defer sh.op.Unlock()
	return s.putLocked(i, name, sched, replace, c, epoch, record)
}

// putLocked is put for a caller that holds shard i's op lock.
func (s *Store) putLocked(i int, name string, sched *session.Scheduler, replace bool, c counts, epoch uint64, record func() ([]byte, error)) error {
	if name == "" {
		return errors.New("store: empty session name")
	}
	if _, err := s.lookup(name); err == nil && !replace {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := s.appendRecord(context.Background(), i, false, record); err != nil {
		return err
	}
	s.bumpEpoch(epoch)
	h := &handle{name: name, sched: sched}
	h.publish(c)
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.sessions[name] = h
	sh.mu.Unlock()
	return nil
}

// appendRecord appends a live write's record to shard i's log, under
// a wal.fsync span of ctx's trace; it does nothing on a store without
// a log or in replay (record nil). applied says the write has already
// changed the session, so a record that cannot be encoded leaves
// memory ahead of the log and latches the poison like a failed
// append.
func (s *Store) appendRecord(ctx context.Context, i int, applied bool, record func() ([]byte, error)) error {
	if s.log == nil || record == nil {
		return nil
	}
	payload, err := record()
	if err != nil {
		if applied {
			s.log.poison.CompareAndSwap(nil, &err)
		}
		return err
	}
	_, sp := obs.StartSpan(ctx, obs.SpanWALFsync, obs.A("shard", i), obs.A("bytes", len(payload)))
	err = s.log.append(i, payload)
	sp.End()
	return err
}

// Get returns the live Scheduler of a session for direct use. The
// scheduler stays valid (and safe: it has its own lock) even if the
// session is deleted concurrently; it is simply no longer reachable
// through the store. Store counters and logs do not see direct
// mutations, so prefer ApplyBatch for served traffic.
func (s *Store) Get(name string) (*session.Scheduler, error) {
	h, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return h.sched, nil
}

// lookup finds a handle under the shard read lock.
func (s *Store) lookup(name string) (*handle, error) {
	sh := &s.shards[shardIndex(name)]
	sh.mu.RLock()
	h, ok := sh.sessions[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return h, nil
}

// Delete removes a session from the registry; a durable store logs
// the deletion first.
func (s *Store) Delete(name string) error {
	return s.remove(name, func() ([]byte, error) { return encodeDeleteRecord(name), nil })
}

// remove deletes name's session: live (a durable store appends record
// first) or in replay (record nil).
func (s *Store) remove(name string, record func() ([]byte, error)) error {
	i := shardIndex(name)
	sh, err := s.lockShard(i)
	if err != nil {
		return err
	}
	defer sh.op.Unlock()
	return s.removeLocked(i, name, record)
}

// removeLocked is remove for a caller that holds shard i's op lock.
func (s *Store) removeLocked(i int, name string, record func() ([]byte, error)) error {
	if _, err := s.lookup(name); err != nil {
		return err
	}
	if err := s.appendRecord(context.Background(), i, false, record); err != nil {
		return err
	}
	sh := &s.shards[i]
	sh.mu.Lock()
	delete(sh.sessions, name)
	sh.mu.Unlock()
	return nil
}

// Len returns the number of registered sessions.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// Names lists the registered session ids, sorted.
func (s *Store) Names() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.sessions {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Meta returns the lock-free metadata snapshot of one session.
func (s *Store) Meta(name string) (Meta, error) {
	h, err := s.lookup(name)
	if err != nil {
		return Meta{}, err
	}
	return *h.meta.Load(), nil
}

// Metas returns the metadata of every session, sorted by name.
func (s *Store) Metas() []Meta {
	var out []Meta
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, h := range sh.sessions {
			out = append(out, *h.meta.Load())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolve re-solves one session incrementally (see
// session.Scheduler.Resolve) and publishes its metadata. A durable
// store logs the committed outcome before the call returns.
func (s *Store) Resolve(ctx context.Context, name string) (*session.Delta, error) {
	res, err := s.commit(ctx, name, nil, false, nil)
	if err != nil {
		return nil, err
	}
	return res.Delta, nil
}

// commit is the write path of ApplyBatch (batch set) and Resolve, live
// and in replay (rec set). Under the shard's op lock it applies muts
// to the session and commits them: live by resolving under ctx, in
// replay by installing rec's commit stamp, if it has one. A live write
// to a durable store then appends the applied prefix and the commit's
// stamp. Last, the counters advance, Meta is published and the sink
// hears of a live commit. A mutation or resolve error leaves the valid
// prefix applied, counted and logged, staged for the next resolve, and
// is returned.
func (s *Store) commit(ctx context.Context, name string, muts []Mutation, batch bool, rec *WALRecord) (*BatchResult, error) {
	i := shardIndex(name)
	sh, err := s.lockShard(i)
	if err != nil {
		return nil, err
	}
	defer sh.op.Unlock()
	h, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{}
	applied, err := h.apply(muts, res)
	committed := false
	if err == nil {
		if rec == nil {
			res.Delta, err = h.sched.Resolve(ctx)
			committed = err == nil
		} else if rec.Commit != nil {
			err = rec.Commit.install(h.sched)
			committed = err == nil
		}
	}
	if applied == 0 && !committed {
		return nil, err
	}
	if rec == nil {
		aerr := s.appendRecord(ctx, i, true, func() ([]byte, error) {
			var stamp *commitStamp
			if committed {
				stamp = stampOf(h.sched)
			}
			if !batch {
				return encodeResolveRecord(resolveRec{Name: name, Commit: *stamp, Trace: obs.TraceID(ctx)})
			}
			return encodeBatchRecord(batchRec{Name: name, Muts: muts[:applied], Commit: stamp, Trace: obs.TraceID(ctx)})
		})
		if aerr != nil {
			return nil, aerr
		}
	}
	c := h.counters()
	c.mutations += uint64(applied)
	if committed {
		c.resolves++
		if batch {
			c.batches++
		}
	}
	h.publish(c)
	if res.Delta != nil {
		s.emitCommit(h, res.Delta)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// exportShardLocked snapshots every session of shard i as checkpoint
// entries, sorted by name and stamped with the store's epoch: the
// payload of a durable store's checkpoint and of the replica transfer
// a promoting peer pulls. The caller holds the shard's op lock, so
// each entry's counters and snapshot come from the same commit.
func (s *Store) exportShardLocked(i int) ([]WALCheckpointEntry, error) {
	handles := s.handlesInShard(i)
	entries := make([]WALCheckpointEntry, 0, len(handles))
	epoch := s.Epoch()
	for _, h := range handles {
		doc, err := snap.FromState(h.name, h.sched.ExportState())
		if err != nil {
			return nil, err
		}
		c := h.counters()
		entries = append(entries, WALCheckpointEntry{
			Name:      h.name,
			Resolves:  c.resolves,
			Mutations: c.mutations,
			Batches:   c.batches,
			Epoch:     epoch,
			Snapshot:  doc,
		})
	}
	return entries, nil
}

// Snapshot exports the full state of one session (instance,
// constraints, committed schedule) for serialization by
// ses/internal/snap. The export is atomic under the session lock.
func (s *Store) Snapshot(name string) (*session.State, error) {
	h, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return h.sched.ExportState(), nil
}
