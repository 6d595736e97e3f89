// Command chatgraphd serves ChatGraph over HTTP — the offline substitute for
// the paper's Gradio app, grown into a multi-session daemon. One engine
// (model + retrieval index + API registry) is built at startup and shared by
// every conversation.
//
// v1 endpoints: POST /v1/sessions, POST /v1/sessions/{id}/chat (add
// ?stream=1 for NDJSON progress), GET /v1/sessions/{id}/history,
// DELETE /v1/sessions/{id}. Async jobs: POST /v1/jobs runs a chat or a
// pinned chain outside the request deadline, GET /v1/jobs/{id} polls it
// (?stream=1 tails NDJSON progress), DELETE /v1/jobs/{id} cancels; the pool
// is sized by -job-workers/-job-queue and finished jobs are retained for
// -job-retention. Demo-panel endpoints: GET /apis, GET /suggest,
// GET /config, GET /healthz. Observability: GET /metrics (Prometheus text
// format). Overload policy: -max-inflight sheds with 429,
// -session-rate/-session-burst rate-limit each session's chats, and
// -request-timeout bounds one request's lifetime.
//
// Durability: with -data-dir set, session lifecycle, chat transcripts, and
// async job records persist through a CRC-framed WAL plus periodic
// snapshots (-snapshot-interval, -wal-sync). Uploaded graphs do not: every
// request carries its own. On boot the daemon replays the log — GET /readyz
// answers 503 until the replay lands — and on SIGTERM it checkpoints after
// draining, so a restart (graceful or kill -9) resumes with every committed
// session, transcript, and finished job intact.
//
// Example:
//
//	chatgraphd -addr :8080 -session-ttl 30m &
//	sid=$(curl -s -X POST localhost:8080/v1/sessions | jq -r .session_id)
//	curl -s localhost:8080/v1/sessions/$sid/chat -d '{"question":"Write a brief report for G",
//	     "graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1}]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/durable"
	"chatgraph/internal/jobs"
	"chatgraph/internal/server"
	"chatgraph/internal/tenant"
)

// effectiveConfig resolves the one configuration the daemon runs and
// GET /config reports: the defaults, then the -config file if given, then
// the flags. -llm/-model apply only without a file, whose llm block
// otherwise wins.
func effectiveConfig(cfgPath, llmURL, llmModel string) (config.Config, error) {
	fc := config.Default()
	if cfgPath != "" {
		var err error
		if fc, err = config.Load(cfgPath); err != nil {
			return config.Config{}, err
		}
	} else if llmURL != "" {
		fc.LLM.Backend, fc.LLM.BaseURL, fc.LLM.Model = "http", llmURL, llmModel
	}
	return fc, fc.Validate()
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cfgPath     = flag.String("config", "", "JSON config file (see internal/config); overrides -llm/-model")
		llmURL      = flag.String("llm", "", "OpenAI-style endpoint for chain generation (default: built-in model)")
		llmModel    = flag.String("model", "vicuna-13b", "model name sent to the -llm endpoint")
		seed        = flag.Int64("seed", 42, "seed for training and the molecule database")
		mols        = flag.Int("molecules", 200, "molecules to seed the similarity database with")
		sessionTTL  = flag.Duration("session-ttl", server.DefaultSessionTTL, "idle timeout after which a v1 session expires")
		maxSessions = flag.Int("max-sessions", server.DefaultMaxSessions, "cap on concurrently live v1 sessions")
		drainWait   = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")

		maxInFlight  = flag.Int("max-inflight", 0, "cap on concurrently admitted requests; excess sheds with 429 (0 = unlimited)")
		maxRPS       = flag.Float64("max-rps", 0, "cap on the aggregate admitted request rate (this replica's provisioned capacity); excess sheds with 429 (0 = unlimited)")
		sessionRate  = flag.Float64("session-rate", 0, "per-session chat rate limit in requests/sec (0 = unlimited)")
		sessionBurst = flag.Int("session-burst", 0, "per-session rate-limit burst (0 = one second's worth)")
		reqTimeout   = flag.Duration("request-timeout", 60*time.Second, "per-request context deadline on chat/retrieve; expired chats answer 504 (0 = none)")
		tenantsPath  = flag.String("tenants", "", "multi-tenant config file (API keys, quotas, fair-share weights); empty = single anonymous tenant")
		jobWorkers   = flag.Int("job-workers", jobs.DefaultWorkers, "async job pool size; each worker runs one /v1/jobs chain at a time")
		jobQueue     = flag.Int("job-queue", jobs.DefaultQueueDepth, "async job queue depth; submissions beyond it shed with 429")
		jobRetention = flag.Duration("job-retention", jobs.DefaultRetention, "how long finished jobs stay pollable before eviction")
		writeTimeout = flag.Duration("write-timeout", 0, "http.Server write timeout; must exceed -request-timeout when set (0 = none, required for long NDJSON streams)")
		readHeader   = flag.Duration("read-header-timeout", 10*time.Second, "http.Server read-header timeout")

		dataDir      = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = in-memory only")
		walSync      = flag.String("wal-sync", "interval", "WAL fsync policy: always, interval, or none (needs -data-dir)")
		walSyncEvery = flag.Duration("wal-sync-interval", durable.DefaultSyncInterval, "fsync cadence for -wal-sync interval")
		snapEvery    = flag.Duration("snapshot-interval", 5*time.Minute, "how often to checkpoint state and rotate the WAL (0 = only on shutdown; needs -data-dir)")
	)
	// Parsed and ignored: bench/workload.go starts mixed_durable with it, and
	// bench/ changes in benchmark-only PRs. It goes with that line.
	flag.Bool("quantize", false, "no effect; retained for existing launch lines")
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first non-flag, so everything after it — a
		// -data-dir, a -tenants — would be silently dropped.
		fmt.Fprintf(os.Stderr, "chatgraphd: unexpected argument %q (flags after it would be ignored)\n", flag.Arg(0))
		os.Exit(2)
	}
	// None of these offers 0 as a default in its help text, and the layers
	// below read a non-positive value as "unset": the daemon would log the
	// flag and run the package default.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"session-ttl", int64(*sessionTTL)},
		{"max-sessions", int64(*maxSessions)},
		{"job-workers", int64(*jobWorkers)},
		{"job-queue", int64(*jobQueue)},
		{"job-retention", int64(*jobRetention)},
	} {
		if f.v <= 0 {
			fmt.Fprintf(os.Stderr, "chatgraphd: -%s must be positive\n", f.name)
			os.Exit(2)
		}
	}
	if *dataDir == "" {
		// These tune the durability layer and do nothing without one; a
		// daemon asked for -wal-sync always must not boot in-memory and
		// acknowledge turns it will never persist.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "wal-sync", "wal-sync-interval", "snapshot-interval":
				fmt.Fprintf(os.Stderr, "chatgraphd: -%s needs -data-dir\n", f.Name)
				os.Exit(2)
			}
		})
	}
	if *writeTimeout > 0 && *writeTimeout <= *reqTimeout {
		log.Fatalf("chatgraphd: -write-timeout %s must exceed -request-timeout %s (or the connection dies before the 504 can be written)", *writeTimeout, *reqTimeout)
	}

	fc, err := effectiveConfig(*cfgPath, *llmURL, *llmModel)
	if err != nil {
		log.Fatalf("chatgraphd: %v", err)
	}

	rng := rand.New(rand.NewSource(*seed))
	env := &apis.Env{}
	reg := apis.Default(env)
	core.SeedMoleculeDB(env, *mols, rng)
	log.Println("training chain-generation model ...")
	eng, err := core.NewEngine(core.Config{Registry: reg, Env: env, TrainSeed: *seed, Params: &fc})
	if err != nil {
		log.Fatalf("chatgraphd: %v", err)
	}

	// Open the durability layer (if any) before the server exists: recovery
	// needs the replayed state, and the server refuses gated traffic until
	// Recover has run.
	var dstore *durable.Store
	var recovered *durable.State
	if *dataDir != "" {
		policy, perr := durable.ParseSyncPolicy(*walSync)
		if perr != nil {
			log.Fatalf("chatgraphd: %v", perr)
		}
		dstore, recovered, err = durable.Open(durable.Options{
			Dir:          *dataDir,
			Sync:         policy,
			SyncInterval: *walSyncEvery,
		})
		if err != nil {
			log.Fatalf("chatgraphd: %v", err)
		}
		log.Printf("durability: %s (wal-sync %s, %d records replayed, %d truncations)",
			*dataDir, policy, recovered.Records, recovered.Truncations)
	}

	var tenants *tenant.Registry
	if *tenantsPath != "" {
		if tenants, err = tenant.LoadFile(*tenantsPath); err != nil {
			log.Fatalf("chatgraphd: %v", err)
		}
		log.Printf("tenants: %d configured (+ anonymous), fair shares over max-inflight %d", len(tenants.Names())-1, *maxInFlight)
	}

	srv := server.New(eng, server.Options{
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		MaxInFlight:    *maxInFlight,
		MaxRPS:         *maxRPS,
		SessionRate:    *sessionRate,
		SessionBurst:   *sessionBurst,
		RequestTimeout: *reqTimeout,
		JobWorkers:     *jobWorkers,
		JobQueue:       *jobQueue,
		JobRetention:   *jobRetention,
		Durable:        dstore,
		Tenants:        tenants,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeader,
		WriteTimeout:      *writeTimeout,
	}

	// Sweep expired sessions and finished jobs in the background so idle
	// daemons release memory without waiting for traffic.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		ticker := time.NewTicker(*sessionTTL / 2)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if n := srv.Sessions().Sweep(); n > 0 {
					log.Printf("expired %d idle sessions (%d live)", n, srv.Sessions().Len())
				}
				if n := srv.Jobs().Sweep(); n > 0 {
					log.Printf("evicted %d finished jobs (%d retained)", n, srv.Jobs().Len())
				}
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("chatgraphd listening on %s (%d APIs registered, session ttl %s, max %d sessions, max-inflight %d, request timeout %s, %d job workers, job queue %d)",
		*addr, reg.Len(), *sessionTTL, *maxSessions, *maxInFlight, *reqTimeout, *jobWorkers, *jobQueue)

	// The listener is up (so /healthz and /readyz answer) but gated routes
	// shed 503 until the recovered state is replayed into the server.
	if dstore != nil {
		if err := srv.Recover(recovered); err != nil {
			log.Fatalf("chatgraphd: recover: %v", err)
		}
		if *snapEvery > 0 {
			go func() {
				ticker := time.NewTicker(*snapEvery)
				defer ticker.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-ticker.C:
						if err := srv.Checkpoint(); err != nil {
							log.Printf("chatgraphd: checkpoint: %v", err)
						}
					}
				}
			}()
		}
	}

	select {
	case err := <-errc:
		log.Fatalf("chatgraphd: %v", err)
	case <-ctx.Done():
		log.Printf("signal received; draining for up to %s ...", *drainWait)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("chatgraphd: shutdown: %v", err)
		}
		// With HTTP drained, stop the job pool: queued jobs cancel, running
		// ones get their contexts cut, and Close waits for the workers.
		srv.Close()
		// Checkpoint after Close so the final job cancellations are in the
		// snapshot, then flush and release the WAL.
		if dstore != nil {
			if err := srv.Checkpoint(); err != nil {
				log.Printf("chatgraphd: final checkpoint: %v", err)
			}
			if err := dstore.Close(); err != nil {
				log.Printf("chatgraphd: close durable store: %v", err)
			} else {
				log.Println("durable state checkpointed")
			}
		}
		log.Println("chatgraphd stopped")
	}
}
