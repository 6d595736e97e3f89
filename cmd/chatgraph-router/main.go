// Command chatgraph-router fronts a pool of chatgraphd replicas as one
// endpoint. One daemon saturates one core; the router is how N of them
// scale out: it mints session and job IDs itself and pins each onto a
// backend via rendezvous hashing, so every later request carrying the id
// re-derives its owner with no routing table — stable across router
// restarts and shared by any router replica fed the same backend list. A
// new session or job goes to whichever routable backend owns the id minted
// for it, whatever its body carries; stateless routes round-robin over
// healthy backends with retry-on-next-hop for idempotent methods. Backends
// are probed with GET /readyz alone, with consecutive-failure marking and
// half-open recovery.
//
// The router itself serves GET /healthz (always 200 while the process is
// alive), GET /readyz (503 until at least one backend is routable), and
// GET /metrics (per-backend request/error/latency/up families plus router
// totals). Everything else proxies.
//
// Example — two replicas behind one router:
//
//	chatgraphd -addr :8081 -data-dir /var/lib/chatgraph/b1 &
//	chatgraphd -addr :8082 -data-dir /var/lib/chatgraph/b2 &
//	chatgraph-router -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082 &
//	curl -s -X POST localhost:8080/v1/sessions   # lands on its HRW owner
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chatgraph/internal/cluster"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		backends     = flag.String("backends", "", "comma-separated backend base URLs (required), e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
		probeEvery   = flag.Duration("probe-interval", time.Second, "health probe cadence per backend")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second, "deadline for one health probe request")
		failAfter    = flag.Int("fail-after", 3, "consecutive probe/transport failures that mark a backend down")
		recoverAfter = flag.Duration("recover-after", 5*time.Second, "cooldown before a down backend gets a half-open recovery probe")
		maxBody      = flag.Int64("max-body", 0, "request body buffer cap in bytes; larger uploads answer 413 (0 = 8MiB + headroom)")
		readHeader   = flag.Duration("read-header-timeout", 10*time.Second, "http.Server read-header timeout")
		drainWait    = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first non-flag; the flags after it would be dropped.
		fmt.Fprintf(os.Stderr, "chatgraph-router: unexpected argument %q (flags after it would be ignored)\n", flag.Arg(0))
		os.Exit(2)
	}
	if strings.TrimSpace(*backends) == "" {
		log.Fatal("chatgraph-router: -backends is required")
	}

	pool, err := cluster.NewPool(strings.Split(*backends, ","), cluster.Policy{
		FailAfter:    *failAfter,
		RecoverAfter: *recoverAfter,
	}, nil)
	if err != nil {
		log.Fatalf("chatgraph-router: %v", err)
	}
	router := cluster.NewRouter(pool, cluster.Options{MaxBody: *maxBody})
	prober := cluster.NewProber(pool, *probeEvery, *probeTimeout)
	prober.Start()
	defer prober.Stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: *readHeader,
		// No write timeout: chat and job NDJSON streams are long-lived and
		// pass through this process.
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	names := make([]string, 0, len(pool.Backends()))
	for _, b := range pool.Backends() {
		names = append(names, b.Name)
	}
	log.Printf("chatgraph-router listening on %s (%d backends: %s; probe every %s, fail after %d, recover after %s)",
		*addr, len(names), strings.Join(names, ", "), *probeEvery, *failAfter, *recoverAfter)

	select {
	case err := <-errc:
		log.Fatalf("chatgraph-router: %v", err)
	case <-ctx.Done():
		log.Printf("signal received; draining for up to %s ...", *drainWait)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("chatgraph-router: shutdown: %v", err)
		}
		router.CloseIdleConnections()
		log.Println("chatgraph-router stopped")
	}
}
