// Package ses is a Go implementation of the Social Event Scheduling
// (SES) problem from Bikakis, Kalogeraki, Gunopulos: "Social Event
// Scheduling", 34th IEEE International Conference on Data Engineering
// (ICDE 2018).
//
// # The problem
//
// An event organizer (festival, venue, marketing company) has a set of
// candidate events, a set of disjoint time intervals, and a per-
// interval resource budget. Third parties run competing events at
// known intervals. Each user has an interest µ(u, e) ∈ [0,1] in every
// event and a social-activity probability σ(u, t) ∈ [0,1] for every
// interval. When several interesting events collide, a user picks
// among them per Luce's choice rule, so the probability that user u
// attends scheduled event e at interval t is
//
//	ρ = σ(u,t) · µ(u,e) / (Σ_{c∈Ct} µ(u,c) + Σ_{p∈Et(S)} µ(u,p))
//
// The organizer wants the feasible schedule of exactly k events (no
// two events in the same interval share a location; per-interval
// resource use stays within budget θ) maximizing total expected
// attendance. The problem is strongly NP-hard (reduction from multiple
// knapsack; see ses/internal/reduction for the executable
// construction).
//
// # What the package provides
//
// The facade has two entry points for solving, plus the model and
// data machinery around them:
//
//   - One-shot solving: New(name, opts...) builds any of the seven
//     registered algorithms (SolverNames lists them — the paper's GRD
//     and its TOP/RAND baselines plus the lazy-greedy, TOP-fill,
//     exact and local-search extensions).
//     Solve(ctx, inst, k) honors the context: cancellation returns
//     promptly everywhere, and a deadline makes the anytime
//     algorithms (grd, grdlazy, localsearch) return their feasible
//     best-so-far with Result.Stopped set.
//   - Sessions: NewScheduler(inst, k, opts...) opens a mutable
//     scheduling session — AddEvent, CancelEvent, UpdateInterest,
//     AddCompeting, Pin, Forbid — whose Resolve(ctx) repairs the
//     schedule incrementally, rescoring only what the mutations
//     invalidated while matching from-scratch GRD exactly.
//   - Serving: NewStore(opts...) opens a sharded, thread-safe
//     registry of named sessions — the in-process multi-organizer
//     layer behind the sesd daemon. ApplyBatch groups mutations into
//     one incremental resolve, Snapshot/Restore move whole sessions
//     between processes, and Meta reads are lock-free.
//   - Functional options shared by all three: WithWorkers, WithEngine,
//     WithSeed, WithProgress.
//   - the problem model (Instance, Event, CompetingEvent, Schedule)
//     and utility evaluation (Utility, EventAttendance,
//     AttendanceProb)
//   - a synthetic Meetup-like EBSN generator and the paper-parameter
//     instance builder for experiments
//   - σ (social activity) models, including an estimator from
//     check-in histories
//
// # Architecture: engines and solvers
//
// The scoring/solver stack is split across two internal layers with a
// narrow contract between them.
//
// The choice layer (ses/internal/choice) owns the attendance model
// (Eq. 1–4). An Engine holds a schedule and answers Score (the
// marginal gain of one assignment), ScoreBatch (Score over a list of
// events at one interval — the unit of work the solver layer
// parallelizes), Apply/Unapply (incremental schedule maintenance),
// and the utility accessors. Three implementations exist: Sparse, the
// production engine, keeps per-interval scheduled mass in sorted
// accumulators maintained by incremental merge, and scores through one
// shared dense per-user view of one interval, kept until that
// interval's mass changes, with σ read through per-user halves of its
// hash; a score whose row is too short to pay for moving the view
// merge-joins instead, and an instance with fewer interest entries
// than users never builds the view, so memory stays bounded by the
// entries; Dense is the paper-faithful O(|U|)-per-score baseline; Ref
// wraps the definitional Reference* oracle functions. Property tests
// force all of them to agree to floating-point accuracy.
//
// What a schedule is worth is a separate, pluggable axis: every
// engine evaluates an Objective — an interval-decomposable fold over
// per-user attendance terms (σ, C, P). Omega, the default, is the
// paper's expected attendance Ω and keeps the engines byte-identical
// to the pre-objective code; AttendanceObjective counts a user only
// once their engagement probability clears a success threshold (after
// the authors' SEP follow-up); FairnessObjective blends attendance
// with an egalitarian n·min participant-share term (after the
// authors' fair virtual-conference scheduling). The engines' mass
// bookkeeping is objective-independent, so Apply/Unapply, forks,
// resets and the parallel scoring pool are untouched; linear
// objectives keep the row-only Score fast path while the nonlinear
// fairness fold re-folds one interval per Score. A differential fuzz
// harness (FuzzEngineOps) holds every engine within 1e-9 of the Ref
// oracle for every registered objective, and solvers report both the
// objective's value (Result.Utility) and the objective-independent Ω
// (Result.Omega).
//
// The solver layer (ses/internal/solver) implements the algorithms on
// top of the Engine interface. Every constructor takes a
// solver.Config carrying the engine factory, the objective and a
// Workers count. The
// scored E×T assignment cross product — the dominant cost of the
// paper's Fig. 1b/1d time series — is built by a shared worklist
// component that fans initial scoring out over a worker pool: each
// worker scores whole intervals against its own Fork of the engine
// and writes to fixed offsets of a preallocated matrix, so schedules,
// utilities and work counters are byte-identical to the serial run
// for any Workers value. GRD, GRDLazy, TOP and TOPFill start from
// that worklist. Algorithm 1's selection phase (popTopAssgn, the
// validity drop, the same-interval rescore) exists once, as
// solver.SelectGreedy, in two modes over the same list: the paper's
// linear scan with eager same-interval rescoring, which grd runs so
// Fig. 1 and its counters reproduce, and a CELF heap mode that
// rescores an assignment only when it reaches the top after its
// interval changed, which grdlazy runs. Under a submodular objective
// (Omega) both select the same schedule. The session layer below runs
// the kernel on its cached scores. The experiment harness
// (ses/internal/experiment) additionally runs independent trials and
// sensitivity points concurrently.
//
// The session layer (ses/internal/session, exposed as Scheduler)
// sits on top of both: it keeps the instance, a warm engine (engines
// implement Reset for in-place reuse, and Sparse also Patch, which
// absorbs added events, new interest rows and new competitors in
// place) and the initial-score matrix of the last solve. Mutations
// invalidate a precise slice of that matrix — one event row for
// AddEvent/UpdateInterest, one interval column for AddCompeting,
// nothing for CancelEvent/Pin/Forbid — and Resolve patches the slice
// and reruns only the greedy selection — the SelectGreedy kernel GRD
// runs, in heap mode under Omega and scan mode otherwise, with pins
// applied first and cancelled events, pinned events and forbidden
// pairs left out of the worklist — which is why it matches
// from-scratch GRD bit for bit (equivalence-tested) at a fraction of
// the InitialScores and, under Omega, of the score updates. Under
// Omega a resolve also replays the prefix of the last commit's greedy
// steps that the mutations since cannot change: a step is certified
// while its event and interval are untouched, it is still valid, and
// no touched pair's fresh initial score (a bound on all its later
// scores under submodularity) beats the score the step won with. The
// certified steps are applied like pins, with no score and no pop
// (Counters.Replayed), and heap mode selects only the rest; a changed
// pin set replays nothing. Heap mode keeps one heap per event's
// entries under a heap of events, so a pick retires its event's other
// entries at once instead of popping them one by one. The utility is
// summed from per-interval values kept from the last commit: only an
// interval whose applied events or their order changed, that gained
// competitors or that holds an event with a new row is refolded. The
// recorded steps and values live in memory only, so the first resolve
// after a restore or recovery selects in full and folds every
// interval.
//
// A score costs O(users interested in the event), so a cold solve
// grows with |U|, while a warm resolve rescores only what heap mode
// and the replayed prefix leave to select (README, "Scaling to
// millions of users", has latencies measured up to a million users).
//
// From this facade, pass WithWorkers(n) or WithObjective(obj) to New
// or NewScheduler; sessolve and sesbench expose the same knobs as
// -workers and -objective. For a Scheduler the objective is session
// state: it travels in snapshots (which bumped the snapshot format to
// version 2) and survives restore.
//
// # Architecture: the serving layer
//
// The store layer (ses/internal/store, exposed as Store) turns the
// single-session Scheduler into a multi-organizer service. Sessions
// live in a registry striped over fixed lock shards keyed by an
// FNV-1a hash of the session id. Every write holds its shard's op
// lock from start to finish, so sessions of one shard serialize their
// commits while different shards commit in parallel, and reads never
// wait: each session handle publishes an immutable Meta value through
// an atomic pointer after every write, and Meta/Metas, Get, Snapshot
// and Names take no op lock, which keeps dashboards and load
// balancers off the solving hot path. ApplyBatch applies a group of
// mutations — each one cheap bookkeeping with precise score-cache
// invalidation — and commits them with a single incremental Resolve,
// producing exactly the outcome of the same mutations applied
// one-by-one followed by one Resolve (test-enforced); two batches on
// one session never interleave. A memory store and a durable one run
// this same write path; the durable store only adds a log to it.
//
// Snapshots (ses/internal/snap) serialize a session's full state —
// instance, cancellations, pins, forbids, committed schedule — behind
// a format version, as canonical JSON for the wire and a compact
// binary form for disk, whose interest matrices are little-endian CSR
// arrays (the gob form of earlier builds is still read).
// restore(snapshot(s)) is byte-identical and malformed input always
// errors (fuzz-enforced); process-local configuration (engine,
// workers) deliberately stays outside the snapshot and is re-supplied
// at restore.
//
// On real cores the store is driven through a resolve pipeline
// (NewPipeline over a Store or DurableStore): requests enqueue on
// per-session queues, back-to-back work on the same session coalesces
// into ONE incremental resolve whose result every coalesced waiter
// shares — with add-mutation ids split back per request — and
// distinct dirty sessions are claimed by a bounded worker pool
// (WithResolveWorkers, default all cores), so independent sessions
// resolve concurrently while each session's operations stay strictly
// serialized. The outcome is byte-identical to executing the
// acknowledged operation order serially (equivalence-tested for both
// Store and DurableStore). Admission control bounds the pending
// request count (WithResolveQueue): past the bound, submits fail fast
// with ErrPipelineSaturated instead of queueing without limit, and a
// queued request whose context is cancelled withdraws cleanly.
// Pipeline.Metrics exposes queue depth and the
// submitted/executed/coalesced/rejected counters.
//
// The sesd command serves the store over HTTP JSON (create, mutate,
// batch, resolve, snapshot, restore, metrics), routing resolves and
// batches through such a pipeline (-resolve-workers, -resolve-queue;
// saturation maps to 503, pipeline and WAL counters appear under
// /v1/metrics) while requests carrying an explicit ?timeout= bypass
// it so their deadline flows into their own anytime resolve. sesd
// reads a create body whole (an over-limit body is always 413) and
// decodes one whose keys come in json.Marshal's order, as sesgen and
// SaveInstance write them, in one pass (dataset.ParseInstanceDoc's
// parser, which shares the interest-row grammar with
// VectorDoc.UnmarshalJSON); any other body goes to encoding/json
// unchanged, so the request and every error text are the same either
// way (fuzz-enforced). sesload drives N concurrent sessions against a
// Store with a mixed mutate/resolve/snapshot workload and writes its
// throughput/latency report to the -json path.
//
// # Architecture: the durability layer
//
// The durability layer (ses/internal/wal plus the durable store in
// ses/internal/store, exposed as DurableStore via OpenStore) makes
// the serving layer crash-recoverable. Each registry shard owns an
// append-only write-ahead log of length-prefixed, CRC32-checksummed
// records, and a DurableStore's embedded Store points at those logs:
// its one write path appends a record for every write and fsyncs per
// the configured sync policy (always / interval / none) before
// acknowledging. Create, Restore, Adopt and Delete append their
// record before they change the registry; ApplyBatch and Resolve run
// in memory first, then append the logical mutations (the same
// tagged-union wire form sesd's batch endpoint speaks) paired with a
// physical commit stamp (schedule, utility, stop reason, cumulative
// counters). The shard lock spans the append and its fsync, so each
// shard's log has one writer at a time and there is nothing for a
// group commit to batch: under SyncAlways every write pays its own
// fsync, and different shards fsync their own files in parallel.
// Recovery loads each shard's newest checkpoint (full binary
// snapshots via the snap codec), then replays the log through the
// same write path, re-applying the logged mutations and installing
// the stamped outcomes verbatim, so every acknowledged session State
// returns byte-identical — including deadline-stopped best-so-far
// schedules a re-run could not reproduce — while a torn log tail
// loses only the record being written when the process died, which
// was never acknowledged. Background checkpoints bound both log size
// and recovery time by truncating the segments they cover; Close
// drains, checkpoints and leaves a log that replays nothing. The
// crash matrix in the test suite cuts a 200+-mutation log at every
// record boundary and at torn offsets and asserts recovery always
// lands on exactly a committed prefix. The seswal command inspects,
// verifies and dumps log directories offline.
//
// # Architecture: the replication layer
//
// The cluster layer (ses/internal/cluster, surfaced here as
// ClusterRing, WALCursor and WALTailer) replicates durable stores
// across nodes. Placement is a consistent-hash ring over the peer
// set — every member and the router build the identical ring from the
// identical -peers map, so a session's primary needs no coordination
// to compute. Each node follows every peer: a streaming HTTP endpoint
// (/v1/replication/stream) pushes the primary's per-shard WALs — every
// commit wakes one ship loop per follower, which reads the shards that
// moved via WALTailer (across segment rotation, stopping cleanly at
// torn tails) — and the follower applies the records through the same
// replay path recovery uses, into an in-memory replica store serving
// lock-free Meta and read fallbacks while staying warm for takeover.
// A record ships only once its append is acknowledged (after its fsync
// under SyncAlways): the ship loop stops at the store's committed
// watermark, so under that policy replication never advertises state
// the primary could lose. Shipping is asynchronous by default; with
// -replicate-ack N each mutation response additionally waits until N
// distinct followers have durably applied the record (each follower
// streams its applied cursors back to the primary on one long-lived
// request), degrading to 503 past a bounded wait rather than
// overstating durability. The sesd daemon
// joins a cluster with -node-id and -peers (health and readiness on
// /v1/healthz and /v1/readyz, replication lag under /v1/metrics); the
// sesrouter command fronts the cluster, routing mutations to
// primaries, fanning reads across followers, and on node death
// promoting the follower with the highest replication cursor — the
// survivor first pulls any shard a surviving peer applied further,
// adopts the dead node's sessions durably (counters preserved
// exactly), then re-replicates the adopted shards through the mesh on
// its own, with watermarks on /v1/replication/status. Promotions
// carry a fsync-persisted monotonic epoch: stale proposals and stale
// routers are fenced with 409, so concurrent routers cannot promote
// divergent survivors, and the promotion is sticky until an operator
// reroutes. sesload -cluster drives a cluster with
// acknowledged-operation accounting, and its -check-acks mode proves
// after a kill -9 that nothing acknowledged was lost; sesbench -fig
// cluster prices node-count scaling, the -replicate-ack 1 ack-wait
// cost, and the failover timeline into BENCH_cluster.json.
//
// # Architecture: the observability layer
//
// The observability layer (ses/internal/obs, surfaced here as
// Observability / NewObservability / WithObservability) threads three
// zero-dependency instruments through every layer above. A
// context-carried tracer opens a root span per sesd request and child
// spans at each stage boundary — create or restore body decode,
// pipeline ride, session resolve, incremental scoring, greedy
// selection, WAL fsync wait, replication ack wait — into a bounded in-memory ring served at /v1/traces;
// trace IDs propagate across router and replication hops via the
// X-Ses-Trace header, and followers record remote replication.apply
// spans under the primary's IDs, so one ID shows a write's full
// cross-node story. A metrics registry of atomic instruments
// (counters, gauges, fixed-bucket histograms, scrape-time collectors)
// renders Prometheus text exposition at /metrics on both sesd and
// sesrouter; sesd's JSON /v1/metrics is a view of the same registry. A
// per-session fan-out hub bridges solver progress callbacks and
// committed deltas to GET /v1/sessions/{name}/watch as server-sent
// events, evicting subscribers that stop reading so a slow dashboard
// can never stall a solve; sesd serves an embedded single-file
// dashboard over it at /. Untraced requests and stores built without
// WithObservability pay only nil checks — sesbench -fig obs prices
// the fully-instrumented path into BENCH_obs.json.
//
// # Quick start
//
//	ds, _ := ses.GenerateEBSN(ses.EBSNConfig{Seed: 1, NumUsers: 2000,
//	    NumEvents: 1000, NumTags: 2000, NumGroups: 50})
//	inst, _ := ses.BuildInstance(ds, ses.PaperParams{K: 20, Seed: 1})
//	grd, _ := ses.New("grd", ses.WithWorkers(8))
//	res, _ := grd.Solve(ctx, inst, 20)
//	fmt.Printf("Ω = %.1f expected attendees\n", res.Utility)
//
// Or, for a living portfolio:
//
//	sched, _ := ses.NewScheduler(inst, 20)
//	sched.Resolve(ctx)                        // full solve, cached
//	id, _ := sched.AddEvent(ev, interest)     // a late booking
//	delta, _ := sched.Resolve(ctx)            // incremental repair
//
// See examples/ (examples/booking walks the session workflow) and
// README.md for a quickstart, the solver table and the command-line
// tools that reproduce the paper's figures.
package ses
