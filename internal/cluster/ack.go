package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ses/internal/store"
	"ses/internal/wal"
)

// Replication acks close the acked-write loss window: with
// `-replicate-ack N` a mutation's HTTP response is withheld until N
// followers have applied the shipped record, so an acknowledged write
// can no longer die with its primary alone. The shipping stream
// itself stays one-way (see proto.go); each follower reports progress
// on a second long-lived request, POST /v1/replication/ack, whose body
// is a stream of newline-delimited cursor messages — one after each
// apply, holding only the shards that moved. Messages self-batch: while
// one is being written, every record applied meanwhile folds into the
// next.

// ErrAckTimeout reports that a synchronous-ack wait expired before
// enough followers confirmed the write. The write IS committed on the
// primary's durable log — the error means replication of it is
// unconfirmed, and the daemon maps it to 503 rather than lying with a
// 200.
var ErrAckTimeout = errors.New("cluster: replication ack timed out")

// ackTracker records, per follower, the highest durably-applied
// cursor acked for each shard, and parks synchronous-ack waiters
// until enough distinct followers have acked past their watermark.
type ackTracker struct {
	mu      sync.Mutex
	peers   map[string]*[store.NumShards]wal.Cursor
	waiters map[*ackWaiter]struct{}
	acks    atomic.Uint64 // ack messages processed
}

// ackWaiter is one parked AwaitAck call.
type ackWaiter struct {
	shard int
	cur   wal.Cursor
	need  int
	ch    chan struct{} // closed exactly once, when satisfied
}

func newAckTracker() *ackTracker {
	return &ackTracker{
		peers:   make(map[string]*[store.NumShards]wal.Cursor),
		waiters: make(map[*ackWaiter]struct{}),
	}
}

// update merges one follower's acked cursors (monotone max per shard)
// and wakes every waiter the new state satisfies.
func (a *ackTracker) update(peer string, cursors map[int]wal.Cursor) {
	a.acks.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.peers[peer]
	if cs == nil {
		cs = new([store.NumShards]wal.Cursor)
		a.peers[peer] = cs
	}
	for i, c := range cursors {
		if cs[i].Before(c) {
			cs[i] = c
		}
	}
	for w := range a.waiters {
		if a.countLocked(w.shard, w.cur) >= w.need {
			close(w.ch)
			delete(a.waiters, w)
		}
	}
}

// countLocked counts distinct followers whose acked cursor for shard
// is at or past cur. Called with a.mu held.
func (a *ackTracker) countLocked(shard int, cur wal.Cursor) int {
	n := 0
	for _, cs := range a.peers {
		if !cs[shard].Before(cur) {
			n++
		}
	}
	return n
}

// acked is countLocked for callers outside the tracker (the
// re-replication status check).
func (a *ackTracker) acked(shard int, cur wal.Cursor) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.countLocked(shard, cur)
}

// await blocks until need distinct followers have acked shard at or
// past cur, or ctx expires (ErrAckTimeout). A zero cursor or
// non-positive need is vacuously satisfied.
func (a *ackTracker) await(ctx context.Context, shard int, cur wal.Cursor, need int) error {
	if need <= 0 || cur.IsZero() {
		return nil
	}
	a.mu.Lock()
	if a.countLocked(shard, cur) >= need {
		a.mu.Unlock()
		return nil
	}
	w := &ackWaiter{shard: shard, cur: cur, need: need, ch: make(chan struct{})}
	a.waiters[w] = struct{}{}
	a.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if _, parked := a.waiters[w]; !parked {
			// Satisfied in the race between ctx firing and this lock.
			a.mu.Unlock()
			return nil
		}
		delete(a.waiters, w)
		got := a.countLocked(shard, cur)
		a.mu.Unlock()
		return fmt.Errorf("%w: %d of %d required follower acks for shard %d at %s",
			ErrAckTimeout, got, need, shard, cur)
	}
}
