// Command sesrouter is the failover proxy in front of a replicated
// sesd cluster: one address clients talk to while sessions live
// spread across N nodes. It routes by the same consistent-hash ring
// the nodes use — mutations (create, delete, resolve, batch, restore)
// and snapshot reads go to a session's primary, other GET reads
// round-robin across live nodes and fall back to the primary on a
// replica miss, and GET /v1/sessions fans out to every node and
// merges.
//
// The router polls every node's /v1/replication/status; -down-after
// consecutive failed polls mark a node dead and trigger failover: the
// surviving follower whose replication cursor over the dead node is
// highest — the longest acknowledged prefix — is told to promote
// (POST /v1/replication/promote) and inherits the dead node's
// sessions until it returns. Because acks follow the group-commit
// fsync and followers apply the primary's own WAL records,
// acknowledged mutations survive the failover.
//
// Each promotion proposes the next promotion epoch (one past the
// highest the router has observed from any node); a node that has
// already seen that epoch answers 409 and the router records nothing,
// so two routers — or one with a flapping health check — cannot
// promote divergent survivors. The router stamps its observed epoch
// on forwarded mutations (X-Ses-Epoch), letting nodes fence writes
// from a router that lost a promotion race.
//
// Usage:
//
//	sesrouter -peers ID=URL,ID=URL,... [-addr :8090]
//	          [-vnodes 64] [-health-interval 250ms] [-down-after 3]
//	          [-pprof ADDR]
//
// -peers and -vnodes must match the sesd nodes' own flags. The
// router's view is at GET /v1/router/status; its own counters
// (per-backend health and forwarded totals, promotions, fenced
// promotions, epoch) are JSON at GET /v1/metrics and Prometheus text
// at GET /metrics — both answered by the router itself, never
// forwarded. Forwarded mutations that arrive without an X-Ses-Trace
// header get one stamped, so one trace ID spans the routed write and
// its replication on the target cluster. -pprof ADDR serves
// net/http/pprof on a separate listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ses/internal/cluster"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatalf("sesrouter: %v", err)
	}
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so one that never finishes them cannot hold a
// connection and a goroutine forever. ReadTimeout stays unset: its
// read deadline would outlive the headers and, when it fired, cancel
// proxied long-lived streams.
const readHeaderTimeout = 5 * time.Second

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sesrouter", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	peersSpec := fs.String("peers", "", "cluster membership as ID=URL,ID=URL,... (same map the sesd nodes run with)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per member; must match the cluster (0 = default)")
	healthIvl := fs.Duration("health-interval", 0, "node status poll period (0 = 250ms)")
	downAfter := fs.Int("down-after", 0, "consecutive failed polls before a node is dead (0 = 3)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	fs.Parse(args)

	peers, err := cluster.ParsePeers(*peersSpec)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		log.Printf("sesrouter: pprof on %s", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("sesrouter: pprof server: %v", err)
			}
		}()
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Peers:          peers,
		VNodes:         *vnodes,
		HealthInterval: *healthIvl,
		DownAfter:      *downAfter,
		Logf:           log.Printf,
	})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("sesrouter: fronting %d nodes on %s", len(peers), ln.Addr())
	httpSrv := &http.Server{Handler: observedHandler(rt), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	log.Printf("sesrouter: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		httpSrv.Close()
	}
	log.Printf("sesrouter: bye")
	return nil
}
