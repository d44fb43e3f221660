// Command sesd is the SES scheduling daemon: an HTTP JSON front over
// ses.Store serving many concurrent organizer sessions from one
// process. Request contexts flow into the anytime solvers, so a
// client deadline (or the ?timeout query) turns a long resolve into a
// committed best-so-far instead of wasted work.
//
// Usage:
//
//	sesd [-addr :8080] [-workers W]
//	     [-resolve-workers N] [-resolve-queue N]
//	     [-data-dir DIR] [-sync always|interval|none]
//	     [-sync-interval 50ms] [-checkpoint-every 1024] [-drain 5s]
//	     [-node-id ID -peers ID=URL,ID=URL,...] [-lag-bound BYTES]
//	     [-replicate-ack N] [-replicate-ack-wait 2s]
//	     [-obs=true] [-trace-ring 512] [-slow-trace 0]
//	     [-pprof ADDR]
//
// With -data-dir the daemon serves a durable store: every
// acknowledged create/delete/batch/resolve/restore is appended to a
// per-shard write-ahead log under DIR before the response is sent
// (fsynced per -sync), boot recovers the acknowledged state from the
// log (the boot line and the ses_recovery_seconds gauge say how long
// that took), and SIGTERM/SIGINT shuts down gracefully — stop
// accepting, end the long-lived watch and replication streams at once,
// drain in-flight requests (once -drain expires their contexts are
// cancelled: those resolves abort without committing and the previous
// schedules stay current), write a final checkpoint, exit 0. Inspect
// the log offline with seswal. Each shard's log has one writer at a
// time, because the shard lock spans the fsync, so there is nothing
// for a group commit to batch: -group-commit is accepted and ignored.
//
// With -node-id and -peers the daemon joins a replicated cluster (see
// ses/internal/cluster and the README's Cluster section): it ships its
// WAL to every peer over POST /v1/replication/stream, follows every
// peer's WAL into warm in-memory replicas, answers GET reads for
// peers' sessions from those replicas, and serves the replication
// status/promote endpoints the sesrouter failover proxy drives.
// /v1/readyz reports ready once recovery has finished and every
// connected replication stream is within -lag-bound bytes of its
// primary.
//
// Replication ships asynchronously by default: a 200 means the write
// is durable on this node only. -replicate-ack N withholds each
// mutation's response until N followers have durably applied the
// shipped record; if they don't confirm within -replicate-ack-wait
// the daemon answers 503 (the write IS committed locally — only its
// replication is unconfirmed) instead of acknowledging a write that
// could still die with this node. Clustered mutations are also
// epoch-fenced: requests stamped (by sesrouter) with an X-Ses-Epoch
// below this node's promotion epoch get 409, so a router acting on a
// stale membership view cannot land writes on a demoted primary.
//
// Observability is on by default (-obs=false turns it off): every
// mutating request runs under a trace whose ID travels in the
// X-Ses-Trace header (sesrouter stamps one when forwarding, so one ID
// spans a routed write and the follower's replication apply), the
// bounded in-memory trace ring is served at GET /v1/traces and
// /v1/traces/{id}, Prometheus text exposition of the daemon's one
// metrics registry is served at GET /metrics, live per-session
// progress streams as server-sent events from
// GET /v1/sessions/{name}/watch, and GET / serves a single-file live
// dashboard. -slow-trace logs the full span tree of any request
// slower than the threshold; -pprof ADDR serves net/http/pprof on a
// separate listener that is never reachable through the serving mux.
// GET /v1/metrics is a JSON view of the same registry (its latency
// percentiles are histogram bucket estimates since boot); under
// -obs=false the registry is private and /metrics is not served.
//
// Resolve and batch requests run on a resolve pipeline: back-to-back
// requests against the same session coalesce into one incremental
// resolve, independent sessions resolve on -resolve-workers cores,
// and past -resolve-queue pending requests the daemon sheds load with
// 503 (admission control; queue depth is visible in /v1/metrics).
// Requests carrying an explicit ?timeout bypass the pipeline so the
// deadline can flow into their own anytime solve.
//
// Create, batch and restore bodies are capped at 64 MiB (413 beyond
// it), and a create or restore whose instance is charged more than
// 2^24 score cells is refused with 422 before anything is built for
// it (see maxScoreCells).
//
// API (all bodies JSON; see the README for a curl walkthrough):
//
//	POST   /v1/sessions                     {"name","k","instance":{...}}  create a session
//	                                        (+"objective":"omega|attendance[:θ]|fairness[:λ]")
//	GET    /v1/sessions                     list session metadata
//	GET    /v1/sessions/{name}              one session's metadata
//	DELETE /v1/sessions/{name}              drop a session
//	POST   /v1/sessions/{name}/resolve      re-solve incrementally [?timeout=200ms]
//	POST   /v1/sessions/{name}/batch        {"mutations":[...]}  mutate + one resolve [?timeout=200ms]
//	GET    /v1/sessions/{name}/schedule     committed schedule + utility
//	GET    /v1/sessions/{name}/snapshot     versioned snapshot [?format=binary]
//	POST   /v1/sessions/{name}/restore      snapshot document  [?replace=true]
//	GET    /v1/sessions/{name}/watch        live progress + commits (server-sent events)
//	GET    /v1/metrics                      daemon + per-session counters (JSON view of the registry)
//	GET    /metrics                         Prometheus text exposition
//	GET    /v1/traces                       recent traces [?min=10ms&limit=50]
//	GET    /v1/traces/{id}                  one trace's span tree
//	GET    /                                live dashboard (single embedded page)
//	GET    /healthz                         liveness
//	GET    /v1/healthz                      liveness (alias)
//	GET    /v1/readyz                       readiness: recovered + replication lag in bound
//	POST   /v1/replication/stream           WAL shipping stream (clustered daemons)
//	GET    /v1/replication/status           replication cursors, lag, failover history
//	POST   /v1/replication/promote          adopt a dead peer's sessions
//
// The instance document is the same JSON sesgen writes; a snapshot
// fetched from one daemon restores into another (or into a library
// ses.Store) unchanged.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"mime"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ses"
	"ses/internal/cluster"
	"ses/internal/dataset"
	"ses/internal/obs"
	"ses/internal/session"
	"ses/internal/snap"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatalf("sesd: %v", err)
	}
}

// run parses flags, opens the (possibly durable) store, and serves
// until ctx is cancelled by a signal.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sesd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "goroutines for initial scoring per resolve (0 = all cores)")
	resolveWorkers := fs.Int("resolve-workers", 0, "sessions resolving concurrently on the pipeline (0 = all cores)")
	resolveQueue := fs.Int("resolve-queue", 0, "pending pipeline requests before 503s (0 = 1024, <0 unbounded)")
	dataDir := fs.String("data-dir", "", "write-ahead log directory; empty serves memory-only")
	syncSpec := fs.String("sync", "always", "WAL sync policy: always, interval or none")
	syncIvl := fs.Duration("sync-interval", 0, "flush period under -sync interval (0 = 50ms)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint a shard after N records (0 = 1024, <0 disables)")
	// Ignored: the end-to-end benchmark's daemon launcher
	// (e2ebench/daemon.go) passes -group-commit with every -data-dir.
	fs.Bool("group-commit", false, "no effect; accepted for compatibility")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain budget for in-flight requests")
	nodeID := fs.String("node-id", "", "this node's cluster identity (requires -peers and -data-dir)")
	peersSpec := fs.String("peers", "", "cluster membership as ID=URL,ID=URL,... (must include -node-id)")
	lagBound := fs.Int64("lag-bound", 0, "replication backlog bytes before /v1/readyz reports unready (0 = 4MiB, <0 unbounded)")
	replicateAck := fs.Int("replicate-ack", 0, "followers that must durably apply each mutation before its response (0 = async replication)")
	ackWait := fs.Duration("replicate-ack-wait", 0, "bound on a synchronous-ack wait before the daemon answers 503 (0 = 2s)")
	obsOn := fs.Bool("obs", true, "request tracing, /metrics exposition and watch streaming")
	traceRing := fs.Int("trace-ring", 0, "finished traces retained for /v1/traces (0 = 512)")
	slowTrace := fs.Duration("slow-trace", 0, "log the span tree of requests at least this slow (0 = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	fs.Parse(args)

	var o *ses.Observability
	if *obsOn {
		o = ses.NewObservability(ses.ObservabilityOptions{
			TraceRing: *traceRing,
			SlowTrace: *slowTrace,
		})
	}
	if *pprofAddr != "" {
		// pprof rides the DefaultServeMux on its own listener; the
		// serving mux below never exposes it.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		log.Printf("sesd: pprof on %s", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("sesd: pprof server: %v", err)
			}
		}()
	}

	var st *ses.Store
	var durable *ses.DurableStore
	if *dataDir != "" {
		pol, err := ses.ParseSyncPolicy(*syncSpec)
		if err != nil {
			return err
		}
		d, err := ses.OpenStore(
			ses.WithDurability(*dataDir),
			ses.WithSyncPolicy(pol),
			ses.WithSyncInterval(*syncIvl),
			ses.WithCheckpointEvery(*ckptEvery),
			ses.WithWorkers(*workers),
			ses.WithObservability(o),
		)
		if err != nil {
			return err
		}
		log.Printf("sesd: recovered %d sessions from %s in %s (sync=%s)", d.Len(), *dataDir, d.Recovery().Round(time.Microsecond), pol)
		durable, st = d, d.Store
	} else {
		// Catch a silently-ignored durability flag: an operator who
		// tunes -sync but forgets -data-dir must not discover the
		// daemon was memory-only at the first crash.
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sync", "sync-interval", "checkpoint-every":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("%s only apply with -data-dir", strings.Join(stray, ", "))
		}
		st = ses.NewStore(ses.WithWorkers(*workers), ses.WithObservability(o))
	}

	var node *cluster.Node
	if *nodeID != "" || *peersSpec != "" {
		if durable == nil {
			return errors.New("-node-id/-peers need -data-dir: only a durable store can replicate its WAL")
		}
		if *nodeID == "" || *peersSpec == "" {
			return errors.New("-node-id and -peers go together")
		}
		peers, err := cluster.ParsePeers(*peersSpec)
		if err != nil {
			return err
		}
		n, err := cluster.NewNode(durable, cluster.NodeOptions{
			ID:           *nodeID,
			Peers:        peers,
			LagBound:     *lagBound,
			ReplicateAck: *replicateAck,
			AckWait:      *ackWait,
			Session:      session.Options{Workers: *workers},
			Logf:         log.Printf,
			Tracer:       tracerOf(o),
		})
		if err != nil {
			return err
		}
		node = n
		if *replicateAck > 0 {
			log.Printf("sesd: cluster node %s in a %d-node ring (replicate-ack=%d)", *nodeID, len(peers), *replicateAck)
		} else {
			log.Printf("sesd: cluster node %s in a %d-node ring", *nodeID, len(peers))
		}
	} else if *replicateAck != 0 || *ackWait != 0 {
		return errors.New("-replicate-ack/-replicate-ack-wait only apply with -node-id/-peers")
	}

	pipe := ses.NewPipeline(st,
		ses.WithResolveWorkers(*resolveWorkers),
		ses.WithResolveQueue(*resolveQueue))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		pipe.Close()
		if durable != nil {
			durable.Close()
		}
		return err
	}
	log.Printf("sesd: listening on %s", ln.Addr())
	return serve(ctx, ln, st, pipe, durable, node, o, *drain)
}

// tracerOf returns o's tracer, nil when observability is off.
func tracerOf(o *ses.Observability) *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so one that never finishes them cannot hold a
// connection and a goroutine forever. ReadTimeout stays unset: its
// read deadline would outlive the headers and, when it fired, cancel
// the long-lived watch and replication streams.
const readHeaderTimeout = 5 * time.Second

// serve runs the HTTP front until ctx is cancelled, then shuts down
// gracefully: the listener stops accepting, the long-lived streams
// (watch, replication shipping and acks) end at once, in-flight
// requests drain, and a durable store writes its final checkpoint
// before serve returns nil. If the drain budget expires first, the
// remaining requests' contexts are cancelled: their resolves abort WITHOUT
// committing (cancellation, unlike a deadline, never commits a
// best-so-far) — the previous schedules stay current and batch
// mutations stay staged for the next resolve.
func serve(ctx context.Context, ln net.Listener, st *ses.Store, pipe *ses.Pipeline, durable *ses.DurableStore, node *cluster.Node, o *ses.Observability, drain time.Duration) error {
	srv := newServer(st, pipe, o, durable, node)
	if node != nil {
		node.Start()
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	streams, endStreams := context.WithCancel(context.Background())
	defer endStreams()
	srv.shutdown = streams
	httpSrv := &http.Server{
		Handler:           srv.routes(),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: readHeaderTimeout,
	}
	// Shutdown waits for every active handler, and the long-lived
	// streams never end on their own: end them when it starts.
	httpSrv.RegisterOnShutdown(endStreams)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		if node != nil {
			node.Close()
		}
		pipe.Close()
		if durable != nil {
			durable.Close()
		}
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}

	log.Printf("sesd: shutdown requested; draining in-flight requests (budget %s)", drain)
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		// The budget expired with requests still running: cancel their
		// contexts (the resolves abort without committing; previous
		// schedules stay current) and close the server.
		baseCancel()
		httpSrv.Close()
	}
	if node != nil {
		// Stop following peers before the final checkpoint so no apply
		// races the durable store's close.
		node.Close()
	}
	pipe.Close()
	if durable != nil {
		log.Printf("sesd: writing final checkpoint")
		if err := durable.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	log.Printf("sesd: bye")
	return nil
}

// server wires the store to the HTTP surface and keeps the daemon
// metrics in one registry.
type server struct {
	store *ses.Store
	// pipeline coalesces and parallelizes resolve/batch traffic;
	// requests with an explicit deadline go straight to the store so
	// the deadline reaches their own anytime solve.
	pipeline *ses.Pipeline
	// walStats reports the durable store's cumulative WAL counters
	// (nil on a memory-only daemon).
	walStats func() ses.WALStats
	// recovery is how long the durable store took to recover at boot.
	recovery time.Duration
	// node is the replication layer on a clustered daemon (nil
	// otherwise): it serves /v1/replication/*, gates /v1/readyz, and
	// backs replica reads for sessions whose primary is a peer.
	node  *cluster.Node
	start time.Time
	// maxCells is the shape admission limit checkShape applies
	// (maxScoreCells; the fuzz target lowers it so that every input
	// stays cheap to resolve).
	maxCells int
	// bodyTimeout is the read deadline create, batch and restore
	// bodies are read under (cluster.BodyReadTimeout; tests lower it).
	bodyTimeout time.Duration
	// shutdown is cancelled when graceful shutdown starts; the
	// long-lived stream routes end on it (nil outside serve).
	shutdown context.Context
	// obs is the observability bundle (nil when -obs=false): trace
	// ring behind /v1/traces, Prometheus registry behind /metrics, and
	// the watch hub behind the SSE endpoint.
	obs *ses.Observability
	// The live instruments, registered once in newServer. errClient
	// and errServer are ses_http_errors_total's two children: client =
	// 4xx and 499 disconnects, server = 5xx.
	httpRequests         *obs.CounterVec
	errClient, errServer *obs.Counter
	resolves, batches    *obs.Counter
	resolveSeconds       *obs.Histogram
}

// newServer builds the daemon's handler state and registers its
// metric families. durable and node are nil on a memory-only or
// unclustered daemon.
func newServer(st *ses.Store, pipe *ses.Pipeline, o *ses.Observability, durable *ses.DurableStore, node *cluster.Node) *server {
	s := &server{store: st, pipeline: pipe, node: node, obs: o, start: time.Now(),
		maxCells: maxScoreCells, bodyTimeout: cluster.BodyReadTimeout}
	if durable != nil {
		s.walStats, s.recovery = durable.WALStats, durable.Recovery()
	}
	// One registry either way: under -obs=false a private one that
	// /v1/metrics reads and no route mounts.
	reg := obs.NewRegistry()
	if o != nil {
		reg = o.Metrics
	}
	s.registerMetrics(reg)
	return s
}

// routes builds the method+pattern mux.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.createSession)
	mux.HandleFunc("GET /v1/sessions", s.listSessions)
	mux.HandleFunc("GET /v1/sessions/{name}", s.getSession)
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.deleteSession)
	mux.HandleFunc("POST /v1/sessions/{name}/resolve", s.resolveSession)
	mux.HandleFunc("POST /v1/sessions/{name}/batch", s.batchSession)
	mux.HandleFunc("GET /v1/sessions/{name}/schedule", s.getSchedule)
	mux.HandleFunc("GET /v1/sessions/{name}/snapshot", s.getSnapshot)
	mux.HandleFunc("POST /v1/sessions/{name}/restore", s.restoreSession)
	mux.Handle("GET /v1/sessions/{name}/watch", s.untilShutdown(http.HandlerFunc(s.watchSession)))
	mux.HandleFunc("GET /v1/metrics", s.metrics)
	mux.HandleFunc("GET /v1/traces", s.listTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.getTrace)
	healthz := func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	}
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/healthz", healthz)
	mux.HandleFunc("GET /v1/readyz", s.readyz)
	if s.node != nil {
		repl := s.node.Handler()
		mux.Handle("/v1/replication/", repl)
		mux.Handle("POST /v1/replication/stream", s.untilShutdown(repl))
		mux.Handle("POST /v1/replication/ack", s.untilShutdown(repl))
	}
	if s.obs != nil {
		mux.Handle("GET /metrics", s.obs.Metrics.Handler())
	}
	mux.HandleFunc("GET /{$}", s.dashboard)
	return s.instrument(mux)
}

// untilShutdown wraps a long-lived stream handler so it ends when
// graceful shutdown starts: its context is cancelled (the watch and
// shipping loops select on it) and its connection's deadlines pass (a
// handler blocked reading the ack stream's body, or writing to a
// client that stopped reading, returns). Ordinary requests are not
// wrapped, so they drain.
func (s *server) untilShutdown(h http.Handler) http.Handler {
	if s.shutdown == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.shutdown, func() {
			cancel()
			rc := http.NewResponseController(w)
			now := time.Now()
			rc.SetReadDeadline(now)
			rc.SetWriteDeadline(now)
		})
		defer stop()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// writeJSON emits one JSON response.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps an error to a JSON error body; instrument counts it
// by the status.
func (s *server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusOf classifies store errors.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ses.ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ses.ErrSessionExists):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		// The deadline fired during a one-shot phase (scoring), where
		// no feasible best-so-far exists to commit; mid-selection the
		// resolve would instead have committed with Stopped set.
		return http.StatusGatewayTimeout
	case errors.Is(err, ses.ErrPipelineSaturated):
		// Admission control: the pipeline queue is full and the request
		// was never executed; the client may retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrAckTimeout):
		// The write is committed locally but not enough followers
		// confirmed it in time; 503 keeps the response honest and lets
		// the client retry (the retry re-waits, it does not re-apply
		// blindly — mutations are idempotent per the batch contract).
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrStaleEpoch):
		// The request was routed on a membership view older than a
		// promotion this node has observed.
		return http.StatusConflict
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.As(err, new(*http.MaxBytesError)):
		// A create, batch or restore body ran past cluster.MaxBodyBytes.
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

// setBodyDeadline sets the read deadline of a create, batch or restore
// request's connection. The handlers arm it first thing, so a request
// refused before its body is read (a stale epoch, a bad ?timeout) is
// cut off too, in net/http's discard of the unread body; readBody
// clears it.
func setBodyDeadline(w http.ResponseWriter, t time.Time) {
	// Errors: ErrNotSupported (the fuzz target's ResponseRecorder has
	// no connection) or a closed connection, which the next read
	// reports anyway.
	_ = http.NewResponseController(w).SetReadDeadline(t)
}

// readBody decodes a create, batch or restore body, capped at
// cluster.MaxBodyBytes, and reads what follows the document (normally
// nothing), all under the deadline the handler armed. Then it clears
// the deadline: armed under net/http's background read, which starts
// at the body's EOF, it would fire during the resolve or ack wait and
// cancel the request's context. On an error the deadline stays armed,
// so net/http's discard of the unread rest fails at once and closes
// the connection.
func readBody(w http.ResponseWriter, r *http.Request, decode func(io.Reader) error) error {
	body := http.MaxBytesReader(w, r.Body, cluster.MaxBodyBytes)
	if err := decode(body); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return err
	}
	setBodyDeadline(w, time.Time{})
	return nil
}

// bodyChunk is the size of the chunks create and restore bodies are
// read into; bodyChunks pools them (*[bodyChunk]byte), so a daemon
// under steady create load reads bodies without allocating chunks.
const bodyChunk = 64 << 10

var bodyChunks = sync.Pool{New: func() any { return new([bodyChunk]byte) }}

// maxPooledChunks caps the chunks one request returns to bodyChunks:
// a body near cluster.MaxBodyBytes leaves at most 8 MiB pooled.
const maxPooledChunks = 128

// readWhole reads a create or restore body whole through readBody:
// into pooled chunks, taken as the body's bytes arrive, then one copy
// of exactly the bytes received. Its size thus follows the body, never
// the Content-Length a client announces, and the body it returns is
// the caller's. n counts the bytes read, also on an error.
func readWhole(w http.ResponseWriter, r *http.Request) (body []byte, n int, err error) {
	var chunks []*[bodyChunk]byte
	last := bodyChunk // bytes in the last chunk
	err = readBody(w, r, func(rd io.Reader) error {
		for {
			if last == bodyChunk {
				chunks = append(chunks, bodyChunks.Get().(*[bodyChunk]byte))
				last = 0
			}
			m, err := rd.Read(chunks[len(chunks)-1][last:])
			last += m
			n += m
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	if err == nil {
		body = make([]byte, n)
		for i, c := range chunks {
			copy(body[i*bodyChunk:], c[:])
		}
	}
	for _, c := range chunks[:min(len(chunks), maxPooledChunks)] {
		bodyChunks.Put(c)
	}
	return body, n, err
}

// reqContext applies the optional ?timeout=DURATION to the request
// context; the deadline flows into the anytime resolve. deadline
// reports whether the client asked for one — such requests bypass the
// pipeline so the deadline governs their own solve rather than a
// merged commit.
func reqContext(r *http.Request) (ctx context.Context, cancel context.CancelFunc, deadline bool, err error) {
	q := r.URL.Query().Get("timeout")
	if q == "" {
		return r.Context(), func() {}, false, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil || d <= 0 {
		return nil, nil, false, fmt.Errorf("bad timeout %q", q)
	}
	ctx, cancel = context.WithTimeout(r.Context(), d)
	return ctx, cancel, true, nil
}

// checkEpoch fences clustered mutations against stale routing: a
// request stamped with an X-Ses-Epoch below this node's promotion
// epoch came through a router that has not yet observed a newer
// promotion, and accepting it could diverge two survivors. Requests
// without the header (operator curl, tests) bypass the fence.
func (s *server) checkEpoch(r *http.Request) error {
	if s.node == nil {
		return nil
	}
	h := r.Header.Get("X-Ses-Epoch")
	if h == "" {
		return nil
	}
	e, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return fmt.Errorf("bad X-Ses-Epoch %q", h)
	}
	if cur := s.node.Epoch(); e < cur {
		return fmt.Errorf("%w: request epoch %d below node epoch %d", cluster.ErrStaleEpoch, e, cur)
	}
	return nil
}

// awaitAck holds a mutation's response until the configured number of
// followers have durably applied the session's latest committed
// record (no-op unless -replicate-ack). It reports whether the
// response may proceed; on timeout it has already written the 503.
func (s *server) awaitAck(w http.ResponseWriter, r *http.Request, name string) bool {
	if s.node == nil {
		return true
	}
	_, asp := obs.StartSpan(r.Context(), obs.SpanReplAck, obs.A("session", name))
	err := s.node.AwaitAck(r.Context(), name)
	asp.End()
	if err != nil {
		s.writeErr(w, statusOf(err), fmt.Errorf("write committed locally, replication unconfirmed: %w", err))
		return false
	}
	return true
}

// doResolve routes a resolve through the pipeline unless the request
// carries its own deadline (or the daemon runs without a pipeline).
func (s *server) doResolve(ctx context.Context, name string, deadline bool) (*ses.Delta, error) {
	if s.pipeline == nil || deadline {
		return s.store.Resolve(ctx, name)
	}
	return s.pipeline.Resolve(ctx, name)
}

// doBatch is doResolve's ApplyBatch counterpart.
func (s *server) doBatch(ctx context.Context, name string, muts []ses.Mutation, deadline bool) (*ses.BatchResult, error) {
	if s.pipeline == nil || deadline {
		return s.store.ApplyBatch(ctx, name, muts)
	}
	return s.pipeline.ApplyBatch(ctx, name, muts)
}

// maxScoreCells bounds the resolve state a create or restore may ask
// for. A first resolve keeps about 50 B per score cell (one event at
// one interval) and about 300 B per interval besides, so an instance
// is charged |T|·(|E|+intervalCells) cells, and the limit keeps its
// first resolve under about 1 GB. Bodies are bounded separately
// (cluster.MaxBodyBytes), but a few bytes can claim any |T|.
const (
	maxScoreCells = 1 << 24
	intervalCells = 8
)

// checkShape refuses an instance document charged more than
// s.maxCells score cells (see maxScoreCells). A non-positive |T| is
// left to instance validation.
func (s *server) checkShape(doc *dataset.InstanceDoc) error {
	if doc == nil || doc.NumIntervals <= 0 {
		return nil
	}
	if per := len(doc.Events) + intervalCells; doc.NumIntervals > s.maxCells/per {
		return fmt.Errorf("instance of %d events × %d intervals is over the admission limit of %d score cells",
			len(doc.Events), doc.NumIntervals, s.maxCells)
	}
	return nil
}

// createReq is the body of POST /v1/sessions.
type createReq struct {
	Name string `json:"name"`
	K    int    `json:"k"`
	// Objective selects what the session maximizes: "omega" (default),
	// "attendance[:theta]" or "fairness[:blend]". It becomes part of
	// the session's state and travels in its snapshots.
	Objective string               `json:"objective,omitempty"`
	Instance  *dataset.InstanceDoc `json:"instance"`
}

// decodeCreate decodes a create body. A body in the form json.Marshal
// writes a createReq, objective present or not, is parsed in one pass
// (onePass); any other body is decoded by encoding/json from the same
// bytes, so the request and any error are encoding/json's either way.
func decodeCreate(body []byte) (req createReq, onePass bool, err error) {
	if req, ok := parseCreate(body); ok {
		return req, true, nil
	}
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, false, err
}

// parseCreate is decodeCreate's one pass. Like a json.Decoder, it
// ignores what follows the request object.
func parseCreate(body []byte) (req createReq, ok bool) {
	s := dataset.NewScanner(body)
	if !(s.Token(`{`) && s.Token(`"name"`) && s.Token(`:`) && s.String(&req.Name) &&
		s.Token(`,`) && s.Token(`"k"`) && s.Token(`:`) && s.Int(&req.K) && s.Token(`,`)) {
		return req, false
	}
	if s.Token(`"objective"`) && !(s.Token(`:`) && s.String(&req.Objective) && s.Token(`,`)) {
		return req, false
	}
	if !(s.Token(`"instance"`) && s.Token(`:`)) {
		return req, false
	}
	req.Instance, ok = s.InstanceDoc()
	return req, ok && s.Token(`}`)
}

func (s *server) createSession(w http.ResponseWriter, r *http.Request) {
	setBodyDeadline(w, time.Now().Add(s.bodyTimeout))
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	req, inst, obj, status, err := s.readCreate(w, r)
	if err != nil {
		s.writeErr(w, status, err)
		return
	}
	if err := s.store.CreateWithObjective(req.Name, inst, req.K, obj); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	if !s.awaitAck(w, r, req.Name) {
		return
	}
	meta, err := s.store.Meta(req.Name)
	if err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusCreated, meta)
}

// readCreate reads a create body whole, decodes it and builds its
// instance under a request.decode span. With an error it returns the
// status to answer.
func (s *server) readCreate(w http.ResponseWriter, r *http.Request) (req createReq, inst *ses.Instance, obj ses.Objective, status int, err error) {
	_, sp := obs.StartSpan(r.Context(), obs.SpanDecode)
	defer sp.End()
	body, n, err := readWhole(w, r)
	sp.SetAttr("bytes", n)
	if err != nil {
		return req, nil, nil, statusOf(err), fmt.Errorf("decoding request: %w", err)
	}
	req, onePass, err := decodeCreate(body)
	sp.SetAttr("one_pass", onePass)
	if err != nil {
		return req, nil, nil, statusOf(err), fmt.Errorf("decoding request: %w", err)
	}
	if req.Name == "" || req.Instance == nil {
		return req, nil, nil, http.StatusBadRequest, errors.New("name and instance are required")
	}
	if err := s.checkShape(req.Instance); err != nil {
		return req, nil, nil, http.StatusUnprocessableEntity, err
	}
	if obj, err = ses.ParseObjective(req.Objective); err != nil {
		return req, nil, nil, http.StatusBadRequest, err
	}
	if inst, err = req.Instance.Instance(); err != nil {
		return req, nil, nil, http.StatusBadRequest, err
	}
	return req, inst, obj, 0, nil
}

func (s *server) listSessions(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.store.Metas())
}

func (s *server) getSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	meta, err := s.store.Meta(name)
	if err != nil {
		if replica, peer, ok := s.replicaFor(name, err); ok {
			if m, rerr := replica.Meta(name); rerr == nil {
				w.Header().Set("X-Ses-Replica-Of", peer)
				s.writeJSON(w, http.StatusOK, m)
				return
			}
		}
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, meta)
}

// replicaFor resolves a read miss against the replication layer: on a
// clustered daemon a session not found locally may live on a peer,
// and this node's warm replica of that peer can serve the read
// lock-free. Only not-found errors are eligible.
func (s *server) replicaFor(name string, err error) (*ses.Store, string, bool) {
	if s.node == nil || !errors.Is(err, ses.ErrSessionNotFound) {
		return nil, "", false
	}
	return s.node.Replica(name)
}

func (s *server) deleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	name := r.PathValue("name")
	if err := s.store.Delete(name); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	if s.obs != nil {
		// End the deleted session's watch streams; their channels close
		// and the SSE handlers return.
		s.obs.Hub.CloseSession(name)
	}
	if !s.awaitAck(w, r, name) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// observeResolve records one committed resolve and its latency.
func (s *server) observeResolve(d time.Duration) {
	s.resolves.Inc()
	s.resolveSeconds.Observe(d.Seconds())
}

func (s *server) resolveSession(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	ctx, cancel, deadline, err := reqContext(r)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	name := r.PathValue("name")
	start := time.Now()
	delta, err := s.doResolve(ctx, name, deadline)
	if err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.observeResolve(time.Since(start))
	if !s.awaitAck(w, r, name) {
		return
	}
	s.writeJSON(w, http.StatusOK, delta)
}

// batchReq is the body of POST /v1/sessions/{name}/batch.
type batchReq struct {
	Mutations []ses.Mutation `json:"mutations"`
}

func (s *server) batchSession(w http.ResponseWriter, r *http.Request) {
	setBodyDeadline(w, time.Now().Add(s.bodyTimeout))
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	ctx, cancel, deadline, err := reqContext(r)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var req batchReq
	if err := readBody(w, r, func(body io.Reader) error { return json.NewDecoder(body).Decode(&req) }); err != nil {
		s.writeErr(w, statusOf(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	name := r.PathValue("name")
	start := time.Now()
	res, err := s.doBatch(ctx, name, req.Mutations, deadline)
	if err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.observeResolve(time.Since(start))
	s.batches.Inc()
	if !s.awaitAck(w, r, name) {
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// scheduleResp is the body of GET /v1/sessions/{name}/schedule.
type scheduleResp struct {
	Assignments []ses.Assignment `json:"assignments"`
	Utility     float64          `json:"utility"`
}

// scheduleOf reads a session's committed schedule and its utility
// under one lock, so the two always describe the same commit.
func scheduleOf(sched *ses.Scheduler) scheduleResp {
	assignments, utility, _, _ := sched.Committed()
	return scheduleResp{Assignments: assignments, Utility: utility}
}

func (s *server) getSchedule(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sched, err := s.store.Get(name)
	if err != nil {
		if replica, peer, ok := s.replicaFor(name, err); ok {
			if rs, rerr := replica.Get(name); rerr == nil {
				w.Header().Set("X-Ses-Replica-Of", peer)
				s.writeJSON(w, http.StatusOK, scheduleOf(rs))
				return
			}
		}
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, scheduleOf(sched))
}

func (s *server) getSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	state, err := s.store.Snapshot(name)
	if err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	doc, err := ses.NewSnapshot(name, state)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if r.URL.Query().Get("format") == "binary" {
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := ses.EncodeSnapshotBinary(w, doc); err != nil {
			log.Printf("sesd: writing binary snapshot: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := ses.EncodeSnapshot(w, doc); err != nil {
		log.Printf("sesd: writing snapshot: %v", err)
	}
}

func (s *server) restoreSession(w http.ResponseWriter, r *http.Request) {
	setBodyDeadline(w, time.Now().Add(s.bodyTimeout))
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	name := r.PathValue("name")
	state, status, err := s.readRestore(w, r)
	if err != nil {
		s.writeErr(w, status, err)
		return
	}
	replace, _ := strconv.ParseBool(r.URL.Query().Get("replace"))
	if err := s.store.Restore(name, state, replace); err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	if !s.awaitAck(w, r, name) {
		return
	}
	meta, err := s.store.Meta(name)
	if err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, meta)
}

// readRestore reads a restore body whole and decodes it, JSON or
// binary by its Content-Type, and builds the session state it holds,
// under a request.decode span. With an error it returns the status to
// answer.
func (s *server) readRestore(w http.ResponseWriter, r *http.Request) (state *ses.SessionState, status int, err error) {
	format := "json"
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/octet-stream" {
		format = "binary"
	}
	_, sp := obs.StartSpan(r.Context(), obs.SpanDecode, obs.A("format", format))
	defer sp.End()
	body, n, err := readWhole(w, r)
	sp.SetAttr("bytes", n)
	var doc *ses.Snapshot
	switch {
	case err != nil:
		err = fmt.Errorf("reading snapshot: %w", err)
	case format == "binary":
		doc, err = snap.ParseBinary(body)
	default:
		doc, err = ses.DecodeSnapshot(bytes.NewReader(body))
	}
	if err != nil {
		return nil, statusOf(err), err
	}
	if err := s.checkShape(doc.Instance); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if state, err = doc.State(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return state, 0, nil
}

// walMetrics is the WAL section of /v1/metrics: the cumulative
// counters plus appends per fsync.
type walMetrics struct {
	ses.WALStats
	RecordsPerFsync float64 `json:"records_per_fsync"`
}

// metricsResp is the body of GET /v1/metrics.
type metricsResp struct {
	UptimeSec float64 `json:"uptime_sec"`
	Sessions  int     `json:"sessions"`
	Requests  uint64  `json:"requests"`
	Resolves  uint64  `json:"resolves"`
	Batches   uint64  `json:"batches"`
	Errors    uint64  `json:"errors"`
	// ErrorsClient/ErrorsServer split Errors by responsibility: client
	// = 4xx and 499 disconnects, server = 5xx. Every error response
	// counts, whichever handler wrote it.
	ErrorsClient uint64               `json:"errors_client"`
	ErrorsServer uint64               `json:"errors_server"`
	ResolveMs    map[string]float64   `json:"resolve_latency_ms"`
	Pipeline     *ses.PipelineMetrics `json:"pipeline,omitempty"`
	WAL          *walMetrics          `json:"wal,omitempty"`
	Replication  *cluster.Metrics     `json:"replication,omitempty"`
	Metas        []ses.SessionMeta    `json:"session_metas"`
}

// readyz is the readiness probe: a memory daemon (and an unclustered
// durable one) is ready as soon as it serves — OpenStore returning
// means recovery finished before the listener existed. A clustered
// daemon is additionally unready while any connected replication
// stream lags its primary beyond -lag-bound, so load balancers don't
// route reads at a follower that is still catching up.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.node != nil {
		if ok, reason := s.node.Ready(); !ok {
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": reason})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// metrics serves GET /v1/metrics: a JSON view of the registry plus the
// pipeline, WAL and replication sections.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	resolveMs := map[string]float64{}
	if snap := s.resolveSeconds.Snapshot(); snap.Count > 0 {
		for key, q := range map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99, "max": 1} {
			resolveMs[key] = snap.Quantile(q) * 1000
		}
	}
	clientErrs, serverErrs := s.errClient.Value(), s.errServer.Value()
	resp := metricsResp{
		UptimeSec:    time.Since(s.start).Seconds(),
		Sessions:     s.store.Len(),
		Requests:     s.httpRequests.Sum(),
		Resolves:     s.resolves.Value(),
		Batches:      s.batches.Value(),
		Errors:       clientErrs + serverErrs,
		ErrorsClient: clientErrs,
		ErrorsServer: serverErrs,
		ResolveMs:    resolveMs,
		Metas:        s.store.Metas(),
	}
	if s.pipeline != nil {
		pm := s.pipeline.Metrics()
		resp.Pipeline = &pm
	}
	if s.walStats != nil {
		ws := s.walStats()
		resp.WAL = &walMetrics{WALStats: ws, RecordsPerFsync: ws.RecordsPerFsync()}
	}
	if s.node != nil {
		m := s.node.Metrics()
		resp.Replication = &m
	}
	s.writeJSON(w, http.StatusOK, resp)
}
