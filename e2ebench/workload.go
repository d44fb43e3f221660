package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/ebsn"
	"ses/internal/session"
	"ses/internal/solver"
	"ses/internal/store"
)

// spec is one workload: a fixed, seeded sequence of steps against one
// daemon deployment.
type spec struct {
	name string
	why  string
	// rate turns -seconds into the run's fixed step count: a run
	// measures round(seconds*rate) steps, so two runs of the same code
	// do the same work however fast the host is.
	rate float64
	// warmup is the number of steps each client runs before the clock
	// starts. They count toward setup_s and no other metric.
	warmup int
	// docs is the number of sessions (edit-warm, replicated-commit) or
	// the size of the document pool (cold-create).
	docs int
	inst instParams
	// durable and cluster select the deployment: one memory sesd, one
	// durable sesd, or three durable -replicate-ack 1 nodes behind
	// sesrouter.
	durable, cluster bool
	// create marks cold-create: a step uploads a document instead of
	// editing a live session.
	create bool
}

// instParams are the sesgen parameters of a workload's documents
// (paper ratios: |E| = 2k, |T| = 3k/2).
type instParams struct {
	Users     int `json:"users"`
	K         int `json:"k"`
	Events    int `json:"events"`
	Intervals int `json:"intervals"`
}

func paper(users, k int) instParams {
	return instParams{Users: users, K: k, Events: 2 * k, Intervals: 3 * k / 2}
}

var specs = []spec{
	{
		name: "edit-warm",
		why:  "single edits on four warm 2000-user k=50 sessions of one memory sesd: incremental resolve (greedy selection, engine rescoring) bound, no WAL or replication",
		rate: 50, warmup: 4, docs: 4, inst: paper(2000, 50),
	},
	{
		name: "replicated-commit",
		why:  "single edits on twelve small sessions through sesrouter to three sync=always -replicate-ack 1 nodes: handler, router hop, WAL fsync and replication ack bound",
		rate: 300, warmup: 40, docs: 12, inst: paper(200, 6),
		durable: true, cluster: true,
	},
	{
		name: "cold-create",
		why:  "upload a 2000-user k=20 document, first resolve, delete, on one durable sesd: instance decode, full initial scoring and large WAL records",
		rate: 50, warmup: 4, docs: 8, inst: paper(2000, 20),
		durable: true, create: true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// doc is one generated instance document and what is known about it
// before any daemon starts.
type doc struct {
	// inst is the instance as a daemon decodes it from json.
	inst *core.Instance
	// json is the encoded dataset.InstanceDoc.
	json []byte
	// grdUtility and grdTime are GRD.Solve from scratch on inst
	// (cold-create's expected first-resolve utility, and the
	// solver.scratch_ms samples there).
	grdUtility float64
	grdTime    time.Duration
}

// inputs are everything a run derives from its seed, built before the
// clock starts.
type inputs struct {
	spec    spec
	seed    uint64
	clients int
	docs    []*doc
}

// docSeed gives document i its own sesgen seed. The sessions of
// edit-warm and replicated-commit are the same in every run (sesgen
// seeds 1..n), and -seed drives their step streams: with only four
// large sessions, drawing new documents per seed would change how
// much work a run does far more than the steps do. cold-create's pool
// is drawn from -seed.
func docSeed(sp spec, seed uint64, i int) uint64 {
	if sp.create {
		return seed*1000 + uint64(i) + 1
	}
	return uint64(i) + 1
}

// makeInputs generates the run's documents the way sesgen does
// (default dataset shape, paper instance parameters), each from a
// distinct seed. For cold-create it also solves each document from
// scratch, which gives the expected utility of its first resolve.
func makeInputs(ctx context.Context, sp spec, seed uint64, clients int) (*inputs, error) {
	in := &inputs{spec: sp, seed: seed, clients: clients}
	for i := 0; i < sp.docs; i++ {
		s := docSeed(sp, seed, i)
		ds, err := ebsn.Generate(ebsn.Config{Seed: s, NumUsers: sp.inst.Users, NumEvents: 4096, NumTags: 2000, NumGroups: 150})
		if err != nil {
			return nil, err
		}
		built, err := dataset.BuildInstance(ds, dataset.PaperParams{K: sp.inst.K, Intervals: sp.inst.Intervals, CandidateEvents: sp.inst.Events, Seed: s})
		if err != nil {
			return nil, err
		}
		idoc, err := dataset.NewInstanceDoc(built)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(idoc)
		if err != nil {
			return nil, err
		}
		// Decode again so every in-process comparison starts from the
		// exact instance a daemon sees.
		var back dataset.InstanceDoc
		if err := json.Unmarshal(raw, &back); err != nil {
			return nil, err
		}
		inst, err := back.Instance()
		if err != nil {
			return nil, err
		}
		d := &doc{inst: inst, json: raw}
		if sp.create {
			t0 := time.Now()
			res, err := solver.NewGRD(solver.Config{}).Solve(ctx, inst, sp.inst.K)
			if err != nil {
				return nil, err
			}
			d.grdTime = time.Since(t0)
			d.grdUtility = res.Utility
		}
		in.docs = append(in.docs, d)
	}
	return in, nil
}

// createBody is the POST /v1/sessions body for a document.
func createBody(name string, k int, d *doc) []byte {
	head := fmt.Sprintf(`{"name":%q,"k":%d,"instance":`, name, k)
	b := make([]byte, 0, len(head)+len(d.json)+1)
	b = append(b, head...)
	b = append(b, d.json...)
	return append(b, '}')
}

// sessionName names session i of a batch workload.
func sessionName(sp spec, i int) string {
	if sp.cluster {
		return fmt.Sprintf("rc-%d", i)
	}
	return fmt.Sprintf("ew-%d", i)
}

// coldName names client c's session for pool document d; a client
// reuses it every time the pool cycles (the previous one is deleted).
func coldName(c, d int) string { return fmt.Sprintf("cc-%d-%d", c, d) }

// owned lists the sessions (or pool documents) client c drives.
func (in *inputs) owned(c int) []int {
	var out []int
	for i := 0; i < len(in.docs); i++ {
		if in.spec.create || i%in.clients == c {
			out = append(out, i)
		}
	}
	return out
}

// model is the client-side view of one session: enough state to draw
// valid single-mutation steps from a seeded mix and to check what the
// daemons answer. It tracks the committed schedule from each write's
// delta, so the step stream depends only on the seed and on the
// (deterministic) committed schedules.
type model struct {
	name      string
	rng       *rand.Rand
	users     int
	intervals int
	events    int
	templates []core.Event
	// added lists the events this benchmark added (IDs from the write
	// answers); cancelled marks the ones it cancelled.
	added     []int
	cancelled map[int]bool
	sched     map[int]int
	utility   float64
	committed map[float64]bool
	batches   int
	// stale is set by a failed write, which may or may not have
	// committed; the next primary read resyncs the model.
	stale bool
	names int
}

func newModel(name string, seed uint64, d *doc) *model {
	return &model{
		name:      name,
		rng:       rand.New(rand.NewPCG(seed, 0x5e5e5e)),
		users:     d.inst.NumUsers,
		intervals: d.inst.NumIntervals,
		events:    d.inst.NumEvents(),
		templates: d.inst.Events,
		cancelled: map[int]bool{},
		sched:     map[int]int{},
		committed: map[float64]bool{},
	}
}

// interest is the one-user µ map sesload gives an added event or
// competitor.
func (m *model) interest() map[int]float64 {
	return map[int]float64{m.rng.IntN(m.users): 0.1 + 0.9*m.rng.Float64()}
}

// next draws the session's next single mutation from the mix of
// sesload's single-mutation steps (cmd/sesload): update_interest,
// add_competing, add_event, cancel_event, pin and unpin, each 1/6,
// with one-user interest maps. As in sesload, a cancel withdraws an
// event the benchmark added, a pin fixes an assignment of the
// committed schedule, and an unpin names any event. sesload forbids a
// pair instead of cancelling half the time, and skips a step it cannot
// make; here every step is one write, so a cancel with nothing to
// cancel, or a pin on an empty schedule, becomes an update_interest.
// Every drawn mutation is valid.
func (m *model) next() store.Mutation {
	switch m.rng.IntN(6) {
	case 1:
		m.names++
		return store.AddCompeting(core.CompetingEvent{Interval: m.rng.IntN(m.intervals), Name: fmt.Sprintf("rival-%d", m.names)}, m.interest())
	case 2:
		// Location and resources of an instance event, so the added
		// event competes for the same stages.
		t := m.templates[m.rng.IntN(len(m.templates))]
		m.names++
		return store.AddEvent(core.Event{Location: t.Location, Required: t.Required, Name: fmt.Sprintf("bench-%d", m.names)}, m.interest())
	case 3:
		var open []int
		for _, e := range m.added {
			if !m.cancelled[e] {
				open = append(open, e)
			}
		}
		if len(open) > 0 {
			return store.CancelEvent(open[m.rng.IntN(len(open))])
		}
	case 4:
		var cand []int
		for _, e := range sortedKeys(m.sched) {
			if !m.cancelled[e] {
				cand = append(cand, e)
			}
		}
		if len(cand) > 0 {
			e := cand[m.rng.IntN(len(cand))]
			return store.Pin(e, m.sched[e])
		}
	case 5:
		return store.Unpin(m.rng.IntN(m.events))
	}
	return store.UpdateInterest(m.rng.IntN(m.users), m.rng.IntN(m.events), m.rng.Float64())
}

func sortedKeys(mp map[int]int) []int {
	ks := make([]int, 0, len(mp))
	for k := range mp {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// commit records an acknowledged mutation and the delta that
// committed it.
func (m *model) commit(mut store.Mutation, res *store.BatchResult) {
	if mut.Op == store.OpCancelEvent {
		m.cancelled[mut.Event] = true
	}
	m.added = append(m.added, res.EventIDs...)
	m.events += len(res.EventIDs)
	m.batches++
	m.commitDelta(res.Delta)
}

// unsure records a mutation whose write failed. It may or may not
// have committed, so the model keeps only what is valid either way: a
// cancelled event is never pinned or cancelled again, and an added
// event, whose ID is unknown, is never named. The model stays stale
// until a primary read resyncs it.
func (m *model) unsure(mut store.Mutation) {
	if mut.Op == store.OpCancelEvent {
		m.cancelled[mut.Event] = true
	}
	m.stale = true
}

// resync adopts a schedule the session's primary answered as the
// committed state, so checking goes on after a failed write.
func (m *model) resync(sr scheduleResp) {
	clear(m.sched)
	for _, a := range sr.Assignments {
		m.sched[a.Event] = a.Interval
	}
	m.utility = sr.Utility
	m.committed[sr.Utility] = true
	m.stale = false
}

// commitDelta moves the committed schedule forward by one resolve.
func (m *model) commitDelta(d *session.Delta) {
	for _, a := range d.Removed {
		delete(m.sched, a.Event)
	}
	for _, a := range d.Added {
		m.sched[a.Event] = a.Interval
	}
	for _, mv := range d.Moved {
		m.sched[mv.Event] = mv.To
	}
	m.utility = d.Utility
	m.committed[d.Utility] = true
}
