package store

import (
	"context"
	"fmt"

	"ses/internal/core"
	"ses/internal/session"
)

// Op names a mutation kind. The string values are the wire names used
// by cmd/sesd's batch endpoint.
type Op string

// The mutation kinds, mirroring the Scheduler mutation methods.
const (
	OpAddEvent       Op = "add_event"
	OpCancelEvent    Op = "cancel_event"
	OpUpdateInterest Op = "update_interest"
	OpAddCompeting   Op = "add_competing"
	OpPin            Op = "pin"
	OpUnpin          Op = "unpin"
	OpForbid         Op = "forbid"
	OpAllow          Op = "allow"
	OpSetK           Op = "set_k"
)

// Mutation is one portfolio change in an ApplyBatch group: a tagged
// union over the Scheduler mutation methods. Construct them with the
// AddEvent/CancelEvent/... helpers; only the fields of the named Op
// are read.
type Mutation struct {
	Op Op `json:"op"`
	// NewEvent carries the candidate event of an add_event.
	NewEvent core.Event `json:"new_event,omitzero"`
	// NewCompeting carries the third-party event of an add_competing.
	NewCompeting core.CompetingEvent `json:"new_competing,omitzero"`
	// Interest is the per-user µ of an add_event / add_competing.
	Interest map[int]float64 `json:"interest,omitempty"`
	// Event targets cancel_event, update_interest, pin, unpin, forbid
	// and allow.
	Event int `json:"event,omitempty"`
	// User and Mu parameterize update_interest.
	User int     `json:"user,omitempty"`
	Mu   float64 `json:"mu,omitempty"`
	// Interval parameterizes pin, forbid and allow.
	Interval int `json:"interval,omitempty"`
	// K parameterizes set_k.
	K int `json:"k,omitempty"`
}

// AddEvent adds a candidate event with per-user interest.
func AddEvent(ev core.Event, interest map[int]float64) Mutation {
	return Mutation{Op: OpAddEvent, NewEvent: ev, Interest: interest}
}

// CancelEvent withdraws candidate event e.
func CancelEvent(e int) Mutation { return Mutation{Op: OpCancelEvent, Event: e} }

// UpdateInterest sets µ(user, event) (0 removes the entry).
func UpdateInterest(user, event int, mu float64) Mutation {
	return Mutation{Op: OpUpdateInterest, Event: event, User: user, Mu: mu}
}

// AddCompeting registers a third-party event with per-user interest.
func AddCompeting(c core.CompetingEvent, interest map[int]float64) Mutation {
	return Mutation{Op: OpAddCompeting, NewCompeting: c, Interest: interest}
}

// Pin forces event e to interval t.
func Pin(e, t int) Mutation { return Mutation{Op: OpPin, Event: e, Interval: t} }

// Unpin releases a pin.
func Unpin(e int) Mutation { return Mutation{Op: OpUnpin, Event: e} }

// Forbid excludes assignment (e, t).
func Forbid(e, t int) Mutation { return Mutation{Op: OpForbid, Event: e, Interval: t} }

// Allow removes a Forbid.
func Allow(e, t int) Mutation { return Mutation{Op: OpAllow, Event: e, Interval: t} }

// SetK retargets the session to schedules of up to k events.
func SetK(k int) Mutation { return Mutation{Op: OpSetK, K: k} }

// ApplyTo applies the mutation to a scheduler, returning the new id
// for add_event / add_competing (and -1 otherwise).
func (m Mutation) ApplyTo(s *session.Scheduler) (id int, err error) {
	switch m.Op {
	case OpAddEvent:
		return s.AddEvent(m.NewEvent, m.Interest)
	case OpCancelEvent:
		return -1, s.CancelEvent(m.Event)
	case OpUpdateInterest:
		return -1, s.UpdateInterest(m.User, m.Event, m.Mu)
	case OpAddCompeting:
		return s.AddCompeting(m.NewCompeting, m.Interest)
	case OpPin:
		return -1, s.Pin(m.Event, m.Interval)
	case OpUnpin:
		return -1, s.Unpin(m.Event)
	case OpForbid:
		return -1, s.Forbid(m.Event, m.Interval)
	case OpAllow:
		return -1, s.Allow(m.Event, m.Interval)
	case OpSetK:
		return -1, s.SetK(m.K)
	default:
		return -1, fmt.Errorf("store: unknown mutation op %q", m.Op)
	}
}

// BatchResult reports one committed ApplyBatch.
type BatchResult struct {
	// EventIDs are the ids assigned to add_event mutations, in batch
	// order.
	EventIDs []int `json:"event_ids,omitempty"`
	// CompetingIDs are the ids assigned to add_competing mutations, in
	// batch order.
	CompetingIDs []int `json:"competing_ids,omitempty"`
	// Delta is the outcome of the single resolve that committed the
	// batch.
	Delta *session.Delta `json:"delta"`
}

// ApplyBatch applies a group of mutations to one session and commits
// them with a single incremental Resolve. Because every mutation is
// pure bookkeeping that invalidates a precise slice of the session's
// score cache, the batch invalidates the union of those slices once
// and the one resolve repairs it — the resulting schedule and utility
// are exactly those of applying the same mutations one-by-one and
// resolving once, which the test suite enforces. The batch holds the
// shard's op lock throughout, so concurrent batches on one session
// never interleave.
//
// A mutation error aborts the batch before the resolve and is
// returned; mutations earlier in the group stay applied (they are
// individually valid), count in Meta, and commit with the session's
// next resolve. A resolve error (e.g. ctx cancellation) likewise
// leaves the mutations staged, not lost: the previous schedule stays
// committed and the next resolve picks the staged work up. A durable
// store logs the applied mutations and, when the resolve committed,
// its outcome before the call returns, so recovery stages exactly the
// same work.
func (s *Store) ApplyBatch(ctx context.Context, name string, muts []Mutation) (*BatchResult, error) {
	return s.commit(ctx, name, muts, true, nil)
}

// apply applies muts in order to h's session, stopping at the first
// error, and returns how many applied. It collects in res the ids
// that add mutations assigned.
func (h *handle) apply(muts []Mutation, res *BatchResult) (int, error) {
	for i, m := range muts {
		id, err := m.ApplyTo(h.sched)
		if err != nil {
			return i, fmt.Errorf("store: batch mutation %d (%s): %w", i, m.Op, err)
		}
		switch m.Op {
		case OpAddEvent:
			res.EventIDs = append(res.EventIDs, id)
		case OpAddCompeting:
			res.CompetingIDs = append(res.CompetingIDs, id)
		}
	}
	return len(muts), nil
}
