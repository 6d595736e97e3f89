// Command loadgen drives a running chatgraphd over the v1 API and reports
// serving-layer performance: latency percentiles, throughput, error and
// shed rates, per operation and overall. It is the repeatable measurement
// tool behind EXPERIMENTS.md's serving tables (E12–E18) and the CI smoke jobs.
//
// Two load models:
//
//   - closed loop (default): -concurrency workers each issue the next
//     request as soon as the previous one finishes — throughput follows
//     service rate, the classic saturation probe.
//   - open loop: requests are dispatched on a fixed schedule at -rate
//     req/s regardless of completions — the arrival process real users
//     produce, which is what exposes queueing collapse under overload.
//
// The operation mix interleaves chat (POST /v1/sessions/{id}/chat, session
// pool round-robin) and batched retrieval (POST /v1/retrieve) per
// -chat-frac. With -jobs-mix > 0 that fraction of operations instead goes
// through the async path: POST /v1/jobs, then poll GET /v1/jobs/{id} until
// the job settles — the recorded latency is submit-to-terminal, so the job
// row's percentiles are completion latencies, not request latencies. 429
// responses count as shed, not errors — shedding is the admission policy
// working as designed; any other non-2xx is an error.
// After the run, /healthz and /metrics are probed so the smoke job fails
// when observability breaks. -strict exits non-zero on any error or failed
// probe.
//
// -reupload (default true) is the E13 workload: every chat request carries
// the full graph JSON in its body, the way stateless clients actually
// behave — the scenario that scored 0% invoke-cache hits before graphs
// were content-addressed. -reupload=false sends question-only chats.
// Either way the report's "cache" block records the server-side invoke
// cache and graph-intern hit rates over the run, read as /metrics counter
// deltas, so the cache effectiveness of a workload is part of the checked
// in benchmark, not a separate observation.
//
// Scenario knobs turn the basic mix into a workload library:
//
//   - -tenant-keys "name=key,..." partitions the workers and the session
//     pool over named tenants; every request carries its tenant's
//     X-API-Key and the report gains a per-tenant breakdown, including
//     each tenant's admitted-throughput share — the number the fairness
//     CI gate compares against the configured weights.
//   - -hostile-tenants names tenants whose workers mix adversarial
//     requests (oversized uploads, malformed JSON, bad pinned IDs, probes
//     at other tenants' sessions) into their traffic. The expected 4xxs
//     land in a separate "rejected" column, not errors: a hostile tenant
//     being rejected is the server working as designed.
//   - -graphs > 1 draws each chat/job's graph from a zipf popularity
//     distribution over a pool of distinct graphs: the head of the
//     distribution exercises the intern and invoke caches the way popular
//     documents do, while the tail defeats them.
//
// Example:
//
//	chatgraphd -addr :8080 &
//	loadgen -addr http://localhost:8080 -duration 5s -concurrency 4 \
//	        -chat-frac 0.5 -json /tmp/serving.json -strict
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chatgraph/internal/graph"
)

func main() {
	var (
		addr         = flag.String("addr", "http://localhost:8080", "base URL of the chatgraphd (or chatgraph-router) to drive")
		targets      = flag.String("targets", "", "comma-separated base URLs to spread load across (cluster mode: sessions and ops are partitioned over the targets and the report breaks results down per backend); empty = just -addr")
		duration     = flag.Duration("duration", 5*time.Second, "how long to generate load")
		concurrency  = flag.Int("concurrency", 4, "closed-loop worker count (open loop: max outstanding requests)")
		mode         = flag.String("mode", "closed", "load model: closed (workers) or open (fixed arrival rate)")
		rate         = flag.Float64("rate", 50, "open-loop arrival rate in req/s")
		chatFrac     = flag.Float64("chat-frac", 0.5, "fraction of operations that are chats (the rest are retrieves)")
		sessions     = flag.Int("sessions", 0, "session pool size (0 = same as -concurrency)")
		k            = flag.Int("k", 5, "retrieval k per query")
		queries      = flag.Int("queries", 4, "queries per retrieve batch")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		seed         = flag.Int64("seed", 7, "workload RNG seed (graph shape, op mix)")
		reupload     = flag.Bool("reupload", true, "send the graph JSON with every chat request (the stateless-client workload); false sends question-only chats")
		jobsMix      = flag.Float64("jobs-mix", 0, "fraction of operations submitted as async jobs (POST /v1/jobs, polled to completion)")
		jobsProbe    = flag.Int("jobs-probe", 0, "after the run, burst this many job submissions without polling to measure queue-full shedding (accepted ones are cancelled)")
		jsonPath     = flag.String("json", "", "write the machine-readable report (chatgraph.loadgen/v1 schema) to this file")
		strict       = flag.Bool("strict", false, "exit 1 on any transport/status error or failed healthz//metrics probe")
		readyWait    = flag.Duration("ready-wait", 0, "before the run, wait up to this long for GET /readyz to answer 200 (daemons without the endpoint count as ready)")
		restartGrace = flag.Duration("restart-grace", 0, "retry transport errors and 503s with backoff for up to this long per request — lets a run span a daemon restart; recoveries are reported as reconnects")
		tenantKeys   = flag.String("tenant-keys", "", "comma-separated name=key list; workers and the session pool are partitioned over the named tenants, every request carries its tenant's X-API-Key, and the report breaks results down per tenant")
		hostileList  = flag.String("hostile-tenants", "", "comma-separated tenant names (from -tenant-keys) whose workers mix adversarial requests into their traffic; their expected 4xxs count as rejected, not errors")
		hostileFrac  = flag.Float64("hostile-frac", 0.5, "fraction of a hostile tenant's operations that are adversarial")
		graphsN      = flag.Int("graphs", 1, "distinct-graph pool size; > 1 picks each op's graph from a zipf popularity distribution over the pool")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first non-flag; the flags after it would be dropped.
		fmt.Fprintf(os.Stderr, "loadgen: unexpected argument %q (flags after it would be ignored)\n", flag.Arg(0))
		os.Exit(2)
	}
	if *mode != "closed" && *mode != "open" {
		log.Fatalf("loadgen: -mode must be closed or open, got %q", *mode)
	}
	if *chatFrac < 0 || *chatFrac > 1 {
		log.Fatalf("loadgen: -chat-frac must be in [0,1], got %g", *chatFrac)
	}
	if *jobsMix < 0 || *jobsMix > 1 {
		log.Fatalf("loadgen: -jobs-mix must be in [0,1], got %g", *jobsMix)
	}
	if *hostileFrac < 0 || *hostileFrac > 1 {
		log.Fatalf("loadgen: -hostile-frac must be in [0,1], got %g", *hostileFrac)
	}
	if *graphsN < 1 {
		log.Fatalf("loadgen: -graphs must be >= 1, got %d", *graphsN)
	}
	tenants, err := parseTenants(*tenantKeys, *hostileList)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if *sessions <= 0 {
		*sessions = *concurrency
	}
	if *sessions < len(tenants) {
		*sessions = len(tenants)
	}

	// Cluster mode: with -targets, sessions and ops are partitioned over the
	// listed base URLs; otherwise everything drives -addr. Either way each
	// response's X-Backend header (set by chatgraph-router) feeds the
	// per-backend breakdown and the session-affinity check.
	bases := []string{strings.TrimRight(*addr, "/")}
	if *targets != "" {
		bases = bases[:0]
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
				bases = append(bases, t)
			}
		}
		if len(bases) == 0 {
			log.Fatal("loadgen: -targets supplied but empty after parsing")
		}
	}
	base := bases[0]
	client := &http.Client{Timeout: *timeout}
	rc := &reconnector{grace: *restartGrace}
	if *readyWait > 0 {
		for _, b := range bases {
			if !waitReady(client, b, *readyWait) {
				log.Fatalf("loadgen: daemon at %s not ready within %s", b, *readyWait)
			}
		}
	}
	rng := rand.New(rand.NewSource(*seed))

	// The graph pool: with -graphs 1 (the default) one modest social graph
	// is reused by every chat — the serving layer is under test, not the
	// graph kernel. A larger pool holds distinct graphs, selected per op by
	// a zipf popularity sampler, so cache behavior under skewed reuse is
	// part of the workload.
	chatBodies := make([][]byte, *graphsN)
	jobBodies := make([][]byte, *graphsN)
	for i := range chatBodies {
		g := graph.PlantedCommunities(2, 10, 0.5, 0.05, rng)
		graphJSON, merr := json.Marshal(g)
		if merr != nil {
			log.Fatalf("loadgen: marshal graph %d: %v", i, merr)
		}
		chatPayload := map[string]any{
			"question": "Summarize the statistics of the graph",
		}
		if *reupload {
			chatPayload["graph"] = json.RawMessage(graphJSON)
		}
		if chatBodies[i], merr = json.Marshal(chatPayload); merr != nil {
			log.Fatalf("loadgen: marshal chat body: %v", merr)
		}
		// Jobs always carry the graph: the async path exists for graph-heavy
		// chains, and reuploading exercises the intern layer under job
		// traffic.
		jobBodies[i], merr = json.Marshal(map[string]any{
			"question": "Write a brief report for G",
			"graph":    json.RawMessage(graphJSON),
		})
		if merr != nil {
			log.Fatalf("loadgen: marshal job body: %v", merr)
		}
	}
	hostileBodies := hostilePayloads()
	retrieveQueries := []string{
		"detect communities in the network",
		"who are the most influential nodes",
		"is the network connected",
		"clean the knowledge graph",
		"how toxic is this molecule",
		"find molecules similar to G",
	}
	qs := retrieveQueries[:min(*queries, len(retrieveQueries))]
	retrieveBody, err := json.Marshal(map[string]any{"queries": qs, "k": *k})
	if err != nil {
		log.Fatalf("loadgen: marshal retrieve body: %v", err)
	}

	// Session pool, partitioned over the targets and the tenants. Each
	// session is created under its tenant's key — sessions are
	// tenant-owned, so a worker may only chat on sessions its own key can
	// see. createdOn remembers which backend (X-Backend) answered the
	// create so every later chat on the session can be checked for
	// affinity.
	pools := make([][]poolSession, len(tenants))
	nSessions := 0
	for i := 0; i < *sessions; i++ {
		ti := i % len(tenants)
		tgt := bases[i%len(bases)]
		id, backend, err := createSession(rc, client, tgt, tenants[ti].key)
		if err != nil {
			log.Fatalf("loadgen: create session %d on %s: %v", i, tgt, err)
		}
		pools[ti] = append(pools[ti], poolSession{base: tgt, id: id, createdOn: backend})
		nSessions++
	}

	// Baseline cache counters: the cache block reports deltas over the run,
	// so earlier traffic against the same daemon doesn't pollute the rates.
	// Multi-target runs sum the counters across targets.
	cacheBefore := scrapeAllCacheCounters(client, bases)

	run := newRunStats()
	doOp := func(w *rand.Rand, zipf *rand.Zipf, worker int) {
		start := time.Now()
		tgt := bases[worker%len(bases)]
		tn := tenants[worker%len(tenants)]
		gi := 0
		if zipf != nil {
			gi = int(zipf.Uint64())
		}
		if tn.hostile && w.Float64() < *hostileFrac {
			hb := hostileBodies[w.Intn(len(hostileBodies))]
			var meta respMeta
			status, err := rc.post(client, tgt+hb.path, hb.body, tn.key, nil, &meta)
			run.recordHostile(tn.name, meta.backend, status, err, time.Since(start))
			return
		}
		if *jobsMix > 0 && w.Float64() < *jobsMix {
			status, outcome, backend, err := runJob(rc, client, tgt, jobBodies[gi], tn.key, *timeout)
			run.recordJob(tn.name, status, outcome, backend, err, time.Since(start))
			return
		}
		var (
			op     string
			status int
			err    error
			meta   respMeta
		)
		if w.Float64() < *chatFrac {
			op = "chat"
			sub := pools[worker%len(tenants)]
			sess := sub[(worker/len(tenants))%len(sub)]
			status, err = rc.post(client, sess.base+"/v1/sessions/"+sess.id+"/chat", chatBodies[gi], tn.key, nil, &meta)
			// Affinity check: a session's chats must land where the session
			// was created. Only checkable when both responses named a
			// backend (i.e. the target is a router).
			if err == nil && status >= 200 && status < 300 &&
				sess.createdOn != "" && meta.backend != "" && meta.backend != sess.createdOn {
				run.affinityViolation()
			}
		} else {
			op = "retrieve"
			status, err = rc.post(client, tgt+"/v1/retrieve", retrieveBody, tn.key, nil, &meta)
		}
		run.record(op, tn.name, meta.backend, status, err, time.Since(start))
	}

	log.Printf("loadgen: %s loop against %s for %s (concurrency %d, sessions %d, tenants %d, chat-frac %.2f, jobs-mix %.2f)",
		*mode, base, *duration, *concurrency, nSessions, len(tenants), *chatFrac, *jobsMix)
	wallStart := time.Now()
	deadline := wallStart.Add(*duration)
	if *mode == "closed" {
		var wg sync.WaitGroup
		for wkr := 0; wkr < *concurrency; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				w := rand.New(rand.NewSource(*seed + int64(wkr)*7919))
				z := newZipf(w, *graphsN)
				for time.Now().Before(deadline) {
					doOp(w, z, wkr)
				}
			}(wkr)
		}
		wg.Wait()
	} else {
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			log.Fatalf("loadgen: -rate %g is not a usable arrival rate", *rate)
		}
		// Outstanding requests are bounded by -concurrency; an arrival that
		// finds every slot busy is recorded as a local drop, mirroring what
		// a queueing client would experience.
		slots := make(chan struct{}, *concurrency)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var wg sync.WaitGroup
		next := 0
		for now := range ticker.C {
			if now.After(deadline) {
				break
			}
			select {
			case slots <- struct{}{}:
				wg.Add(1)
				go func(wkr int, w *rand.Rand) {
					defer wg.Done()
					defer func() { <-slots }()
					doOp(w, newZipf(w, *graphsN), wkr)
				}(next, rand.New(rand.NewSource(*seed+int64(next)*7919)))
				next++
			default:
				run.drop()
			}
		}
		wg.Wait()
	}
	elapsed := time.Since(wallStart)

	// Post-run observability probes: the serving layer is not healthy if it
	// cannot say it is healthy. Every target must answer; a router exposes
	// chatgraph_router_* families instead of the daemon's http counters.
	healthzOK, metricsOK := true, true
	for _, b := range bases {
		healthzOK = healthzOK && probe(client, b+"/healthz", "")
		metricsOK = metricsOK && (probe(client, b+"/metrics", "chatgraph_http_requests_total") ||
			probe(client, b+"/metrics", "chatgraph_router_requests_total"))
	}
	cacheAfter := scrapeAllCacheCounters(client, bases)

	report := run.report(*mode, strings.Join(bases, ","), elapsed, *concurrency, *rate, *chatFrac, nSessions, healthzOK, metricsOK)
	if len(bases) > 1 {
		report.Targets = bases
	}
	report.Reupload = *reupload
	report.Cache = cacheDelta(cacheBefore, cacheAfter)
	report.JobsMix = *jobsMix
	report.GraphPool = *graphsN
	report.Reconnects = int(rc.count.Load())
	if report.Reconnects > 0 {
		log.Printf("loadgen: %d requests recovered via retry (daemon restart or recovery window)", report.Reconnects)
	}
	if *jobsMix > 0 || *jobsProbe > 0 {
		jr := run.jobsReport()
		if *jobsProbe > 0 {
			jr.ProbeSubmitted = *jobsProbe
			jr.ProbeAccepted, jr.Probe429 = jobProbe(client, base, tenants[0].key, *seed, *jobsProbe)
		}
		report.Jobs = &jr
	}
	report.print(os.Stdout)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatalf("loadgen: marshal report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("loadgen: write %s: %v", *jsonPath, err)
		}
		log.Printf("loadgen: wrote %s", *jsonPath)
	}
	if *strict {
		if !healthzOK || !metricsOK {
			log.Fatal("loadgen: strict: healthz or metrics probe failed")
		}
		if report.Total.Errors > 0 {
			log.Fatalf("loadgen: strict: %d non-2xx/429 responses", report.Total.Errors)
		}
		if report.Total.OK == 0 {
			log.Fatal("loadgen: strict: no successful requests")
		}
		if report.AffinityViolations > 0 {
			log.Fatalf("loadgen: strict: %d session-affinity violations (chats served off the session's home backend)", report.AffinityViolations)
		}
		if j := report.Jobs; j != nil && j.Stuck > 0 {
			log.Fatalf("loadgen: strict: %d jobs stuck (never reached a terminal state)", j.Stuck)
		}
	}
}

// reconnector is the restart-tolerance policy: with a positive grace, a
// request that dies in transport (daemon down, connection reset mid-restart)
// or answers 503 (daemon up but still replaying its WAL) is retried with
// exponential backoff, each attempt a fresh request under the client's own
// timeout, until the grace expires. count tallies requests that recovered
// after at least one failed attempt — the report's "reconnects".
type reconnector struct {
	grace time.Duration
	count atomic.Int64
}

// do runs op, retrying while op reports a retryable failure and the grace
// period has budget. It returns op's final verdict either way; a recovery
// after ≥1 failure bumps the reconnect counter.
func (rc *reconnector) do(op func() (retry bool, err error)) error {
	retry, err := op()
	if !retry || rc.grace <= 0 {
		return err
	}
	deadline := time.Now().Add(rc.grace)
	backoff := 50 * time.Millisecond
	for time.Now().Before(deadline) {
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		if retry, err = op(); !retry {
			if err == nil {
				rc.count.Add(1)
			}
			return err
		}
	}
	return err
}

// respMeta carries response facts that ride outside the decoded body —
// today just the X-Backend header a cluster router stamps on every reply.
type respMeta struct {
	backend string
}

// poolSession is one pooled v1 session: where it lives and, when the
// target is a router, which backend created it (for affinity checks).
type poolSession struct {
	base      string
	id        string
	createdOn string
}

// apiKeyHeader mirrors server.APIKeyHeader; loadgen speaks the wire
// protocol only, so the name is spelled out rather than imported.
const apiKeyHeader = "X-API-Key"

// tenantSpec is one -tenant-keys entry: the tenant's name, the API key its
// requests carry, and whether its workers run the hostile profile.
type tenantSpec struct {
	name    string
	key     string
	hostile bool
}

// parseTenants turns -tenant-keys ("name=key,...") and -hostile-tenants
// into the worker partition. With no tenants configured the run is a single
// anonymous partition sending no API key.
func parseTenants(keys, hostiles string) ([]tenantSpec, error) {
	if keys == "" {
		if hostiles != "" {
			return nil, fmt.Errorf("-hostile-tenants requires -tenant-keys")
		}
		return []tenantSpec{{}}, nil
	}
	var specs []tenantSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(keys, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, key, ok := strings.Cut(part, "=")
		if !ok || name == "" || key == "" {
			return nil, fmt.Errorf("-tenant-keys entry %q is not name=key", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("-tenant-keys names %q twice", name)
		}
		seen[name] = true
		specs = append(specs, tenantSpec{name: name, key: key})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-tenant-keys supplied but empty after parsing")
	}
	for _, h := range strings.Split(hostiles, ",") {
		if h = strings.TrimSpace(h); h == "" {
			continue
		}
		found := false
		for i := range specs {
			if specs[i].name == h {
				specs[i].hostile = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("-hostile-tenants names %q, which is not in -tenant-keys", h)
		}
	}
	return specs, nil
}

// hostileOp is one adversarial request shape: where it goes and what it
// carries. A correct server answers every one of them with a 4xx.
type hostileOp struct {
	path string
	body []byte
}

// hostilePayloads builds the adversarial set a hostile tenant mixes into
// its traffic: an upload over the 8 MiB body cap, malformed JSON, a
// malformed pinned job ID, and a probe at a session ID the tenant does not
// own. Each one burns the hostile tenant's own admission slot and rate
// tokens on the way to its 4xx — which is exactly the isolation property
// under test: garbage traffic must cost its sender, not its neighbors.
func hostilePayloads() []hostileOp {
	oversized := make([]byte, 0, 9<<20+64)
	oversized = append(oversized, []byte(`{"question":"flood","pad":"`)...)
	oversized = append(oversized, bytes.Repeat([]byte{'A'}, 9<<20)...)
	oversized = append(oversized, []byte(`"}`)...)
	return []hostileOp{
		{path: "/v1/jobs", body: oversized},
		{path: "/v1/jobs", body: []byte(`{"question":"x","graph":{`)},
		{path: "/v1/jobs", body: []byte(`{"question":"x","job_id":"NOT-LOWERCASE-HEX"}`)},
		{path: "/v1/sessions/deadbeefdeadbeef/chat", body: []byte(`{"question":"whose session is this?"}`)},
	}
}

// newZipf returns the graph-popularity sampler, nil when the pool holds one
// graph. s=1.2 is a mild web-like skew: the head graph takes most draws but
// the tail still gets visited.
func newZipf(w *rand.Rand, n int) *rand.Zipf {
	if n <= 1 {
		return nil
	}
	return rand.NewZipf(w, 1.2, 1, uint64(n-1))
}

// post posts body to url, retrying per the grace policy; key (when
// non-empty) rides the X-API-Key header; when out is non-nil a 2xx reply
// body is decoded into it, and when meta is non-nil it captures response
// metadata from the final attempt.
func (rc *reconnector) post(client *http.Client, url string, body []byte, key string, out any, meta *respMeta) (status int, err error) {
	err = rc.do(func() (bool, error) {
		req, rerr := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if rerr != nil {
			return false, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(apiKeyHeader, key)
		}
		resp, perr := client.Do(req)
		if perr != nil {
			status = 0
			return true, perr
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		if meta != nil {
			meta.backend = resp.Header.Get("X-Backend")
		}
		if status == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			return true, nil
		}
		if out != nil && status >= 200 && status < 300 {
			if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
				return false, fmt.Errorf("decode %s reply: %w", url, derr)
			}
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	return status, nil
}

func createSession(rc *reconnector, client *http.Client, base, key string) (id, backend string, err error) {
	var info struct {
		SessionID string `json:"session_id"`
	}
	var meta respMeta
	// Pool setup paces through 429s: a rate-capped daemon shedding a burst
	// of session creates is admission working, not a failure — back off and
	// finish building the pool before the measured window opens.
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, perr := rc.post(client, base+"/v1/sessions", nil, key, &info, &meta)
		if perr != nil {
			return "", "", perr
		}
		if status == http.StatusTooManyRequests && time.Now().Before(deadline) {
			time.Sleep(200 * time.Millisecond)
			continue
		}
		if status != http.StatusCreated {
			return "", "", fmt.Errorf("status %d", status)
		}
		break
	}
	if info.SessionID == "" {
		return "", "", fmt.Errorf("empty session_id")
	}
	return info.SessionID, meta.backend, nil
}

// waitReady blocks until GET /readyz answers 200 — or the stdlib mux's
// plain "404 page not found", which marks a daemon predating the readiness
// probe and therefore born ready. A 404 with any other body is NOT ready:
// a router or proxy in front answers unknown routes with its own 404 shape
// long before its backends are reachable, and treating that as ready would
// start the load window into a dark pool. Transport errors (daemon still
// booting or restarting) and 503 (recovery replay in progress) keep
// polling until the wait expires.
func waitReady(client *http.Client, base string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			status := resp.StatusCode
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if status == http.StatusOK {
				return true
			}
			if status == http.StatusNotFound &&
				strings.HasPrefix(strings.TrimSpace(string(body)), "404 page not found") {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// jobInfo is the slice of the /v1/jobs wire schema loadgen needs.
type jobInfo struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

// terminalJobState reports whether a wire state string is terminal.
func terminalJobState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

// runJob submits one async job and polls it to a terminal state. status is
// the submission status (for shed/error accounting); outcome is the job's
// terminal state, or "stuck" if it never settled within timeout; backend
// is the X-Backend that accepted the submission (empty off-cluster).
func runJob(rc *reconnector, client *http.Client, base string, body []byte, key string, timeout time.Duration) (status int, outcome, backend string, err error) {
	var info jobInfo
	var meta respMeta
	status, err = rc.post(client, base+"/v1/jobs", body, key, &info, &meta)
	backend = meta.backend
	if err != nil {
		return 0, "", backend, err
	}
	if status != http.StatusAccepted {
		return status, "", backend, nil
	}
	if info.JobID == "" {
		return status, "", backend, fmt.Errorf("job accepted but reply carried no job_id")
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := getJobState(rc, client, base, info.JobID, key)
		if err != nil {
			return status, "", backend, err
		}
		if terminalJobState(st) {
			return status, st, backend, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return status, "stuck", backend, nil
}

func getJobState(rc *reconnector, client *http.Client, base, id, key string) (state string, err error) {
	err = rc.do(func() (bool, error) {
		req, rerr := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id, nil)
		if rerr != nil {
			return false, rerr
		}
		if key != "" {
			// Polling is ownership-checked: without the submitting tenant's
			// key the job answers 404.
			req.Header.Set(apiKeyHeader, key)
		}
		resp, gerr := client.Do(req)
		if gerr != nil {
			return true, gerr
		}
		defer resp.Body.Close()
		// 503 is the recovery window; 404 can be the same window seen from
		// the ungated poll route — the job exists in the WAL but has not
		// been restored yet. Both settle once replay finishes, so both are
		// retryable under a restart grace.
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusNotFound {
			body, _ := io.ReadAll(resp.Body)
			return true, fmt.Errorf("poll job %s: status %d: %s", id, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return false, fmt.Errorf("poll job %s: status %d: %s", id, resp.StatusCode, body)
		}
		var info jobInfo
		if derr := json.NewDecoder(resp.Body).Decode(&info); derr != nil {
			return false, derr
		}
		state = info.State
		return false, nil
	})
	return state, err
}

// jobProbe bursts n concurrent job submissions without polling — pure
// admission behavior: how many the queue takes before shedding with 429.
// Every submission carries a unique, larger graph so its chain misses the
// invoke cache and holds a worker for real work — a sequential burst of
// cache-warm jobs drains as fast as it fills and never observes the queue
// bound. Accepted jobs are cancelled afterwards so the probe leaves no
// stragglers running.
func jobProbe(client *http.Client, base, key string, seed int64, n int) (accepted, shed429 int) {
	bodies := make([][]byte, n)
	for i := range bodies {
		prng := rand.New(rand.NewSource(seed + 104729*int64(i+1)))
		pg := graph.PlantedCommunities(4, 100, 0.3, 0.02, prng)
		gj, err := json.Marshal(pg)
		if err != nil {
			log.Fatalf("loadgen: marshal probe graph: %v", err)
		}
		bodies[i], err = json.Marshal(map[string]any{
			"question": "Write a brief report for G",
			"graph":    json.RawMessage(gj),
		})
		if err != nil {
			log.Fatalf("loadgen: marshal probe body: %v", err)
		}
	}
	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if key != "" {
				req.Header.Set(apiKeyHeader, key)
			}
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			var info jobInfo
			json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck // error bodies aren't jobInfo
			io.Copy(io.Discard, resp.Body)           //nolint:errcheck
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.StatusCode == http.StatusAccepted:
				accepted++
				if info.JobID != "" {
					ids = append(ids, info.JobID)
				}
			case resp.StatusCode == http.StatusTooManyRequests:
				shed429++
			}
		}(bodies[i])
	}
	wg.Wait()
	for _, id := range ids {
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if err != nil {
			continue
		}
		if key != "" {
			req.Header.Set(apiKeyHeader, key)
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}
	return accepted, shed429
}

// cacheCounters are the raw /metrics samples the report's cache block is
// computed from. ok distinguishes a successful scrape from an absent or
// unreadable endpoint (older daemons, metrics disabled).
type cacheCounters struct {
	invokeHits, invokeMisses float64
	internHits, internMisses float64
	ok                       bool
}

// scrapeCacheCounters reads the unlabeled cache counters from the
// Prometheus text exposition (lines are "name value" for plain counters).
func scrapeCacheCounters(client *http.Client, url string) cacheCounters {
	resp, err := client.Get(url)
	if err != nil {
		return cacheCounters{}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return cacheCounters{}
	}
	c := cacheCounters{ok: true}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "chatgraph_invoke_cache_hits_total":
			c.invokeHits = v
		case "chatgraph_invoke_cache_misses_total":
			c.invokeMisses = v
		case "chatgraph_graphstore_hits_total":
			c.internHits = v
		case "chatgraph_graphstore_misses_total":
			c.internMisses = v
		}
	}
	return c
}

// scrapeAllCacheCounters sums the cache counters across every target —
// in cluster mode the run's cache behavior is the pool's aggregate. One
// failed scrape poisons the block (partial sums would misreport rates).
func scrapeAllCacheCounters(client *http.Client, bases []string) cacheCounters {
	var sum cacheCounters
	sum.ok = true
	for _, b := range bases {
		c := scrapeCacheCounters(client, b+"/metrics")
		if !c.ok {
			return cacheCounters{}
		}
		sum.invokeHits += c.invokeHits
		sum.invokeMisses += c.invokeMisses
		sum.internHits += c.internHits
		sum.internMisses += c.internMisses
	}
	return sum
}

// cacheDelta turns two scrapes into the report's cache block; nil when
// either scrape failed.
func cacheDelta(before, after cacheCounters) *CacheReport {
	if !before.ok || !after.ok {
		return nil
	}
	delta := func(a, b float64) uint64 {
		if a < b {
			return 0
		}
		return uint64(a - b)
	}
	r := &CacheReport{
		InvokeHits:   delta(after.invokeHits, before.invokeHits),
		InvokeMisses: delta(after.invokeMisses, before.invokeMisses),
		InternHits:   delta(after.internHits, before.internHits),
		InternMisses: delta(after.internMisses, before.internMisses),
	}
	rate := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return round2(100 * float64(hits) / float64(hits+misses))
	}
	r.InvokeHitRatePct = rate(r.InvokeHits, r.InvokeMisses)
	r.InternHitRatePct = rate(r.InternHits, r.InternMisses)
	return r
}

func probe(client *http.Client, url, mustContain string) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return mustContain == "" || strings.Contains(string(body), mustContain)
}

// opStats accumulates one operation's samples.
type opStats struct {
	requests int
	ok       int
	shed     int
	// rejected counts expected 4xxs from a hostile tenant's adversarial
	// requests — the server saying no, which is the desired outcome.
	rejected  int
	errors    int
	latencies []float64 // seconds, successful (2xx) requests only
}

// runStats is the mutex-guarded collector shared by the workers. A load
// tool's own contention is irrelevant next to the network round trip.
type runStats struct {
	mu       sync.Mutex
	ops      map[string]*opStats
	backends map[string]*opStats
	tenants  map[string]*opStats
	affinity int
	drops    int
	jobs     JobsReport
}

func newRunStats() *runStats {
	return &runStats{
		ops: map[string]*opStats{
			"chat":     {},
			"retrieve": {},
		},
		backends: map[string]*opStats{},
		tenants:  map[string]*opStats{},
	}
}

// tally applies one sample to an opStats bucket.
func tally(s *opStats, status int, err error, d time.Duration) {
	s.requests++
	switch {
	case err != nil:
		s.errors++
	case status >= 200 && status < 300:
		s.ok++
		s.latencies = append(s.latencies, d.Seconds())
	case status == http.StatusTooManyRequests:
		s.shed++
	default:
		s.errors++
	}
}

// tenantLocked returns the named tenant's bucket; nil outside -tenant-keys
// mode (the anonymous single-partition run has no per-tenant breakdown).
func (r *runStats) tenantLocked(name string) *opStats {
	if name == "" {
		return nil
	}
	s := r.tenants[name]
	if s == nil {
		s = &opStats{}
		r.tenants[name] = s
	}
	return s
}

// recordBackendLocked mirrors one sample into the per-backend breakdown;
// backend is empty when the target is a bare daemon (no X-Backend header).
func (r *runStats) recordBackendLocked(backend string, status int, err error, d time.Duration) {
	if backend == "" {
		return
	}
	s := r.backends[backend]
	if s == nil {
		s = &opStats{}
		r.backends[backend] = s
	}
	tally(s, status, err, d)
}

func (r *runStats) record(op, tenant, backend string, status int, err error, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ops[op]
	if s == nil {
		s = &opStats{}
		r.ops[op] = s
	}
	tally(s, status, err, d)
	if ts := r.tenantLocked(tenant); ts != nil {
		tally(ts, status, err, d)
	}
	r.recordBackendLocked(backend, status, err, d)
}

// recordHostile accounts one adversarial request. A 4xx other than 429 is
// the expected outcome — the server rejecting garbage — and lands in the
// rejected column; a 2xx means the server accepted something it should not
// have, counted as ok so the anomaly stays visible in the report.
func (r *runStats) recordHostile(tenant, backend string, status int, err error, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordBackendLocked(backend, status, err, d)
	apply := func(s *opStats) {
		if s == nil {
			return
		}
		s.requests++
		switch {
		case err != nil:
			s.errors++
		case status == http.StatusTooManyRequests:
			s.shed++
		case status >= 400 && status < 500:
			s.rejected++
		case status >= 200 && status < 300:
			s.ok++
		default:
			s.errors++
		}
	}
	s := r.ops["hostile"]
	if s == nil {
		s = &opStats{}
		r.ops["hostile"] = s
	}
	apply(s)
	apply(r.tenantLocked(tenant))
}

// affinityViolation counts one chat that a router served off its session's
// home backend — any nonzero count is a routing bug.
func (r *runStats) affinityViolation() {
	r.mu.Lock()
	r.affinity++
	r.mu.Unlock()
}

func (r *runStats) drop() {
	r.mu.Lock()
	r.drops++
	r.mu.Unlock()
}

// recordJob accounts one async job operation. A completed job is the op's
// success sample — its latency is submit-to-done, so the "job" row's
// percentiles read as completion latency. A job that fails, is cancelled,
// or never settles counts as an error on the op and is broken out in the
// jobs block.
func (r *runStats) recordJob(tenant string, status int, outcome, backend string, err error, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordBackendLocked(backend, status, err, d)
	apply := func(s *opStats) {
		if s == nil {
			return
		}
		s.requests++
		switch {
		case err != nil:
			s.errors++
		case status == http.StatusTooManyRequests:
			s.shed++
		case status != http.StatusAccepted:
			s.errors++
		case outcome == "done":
			s.ok++
			s.latencies = append(s.latencies, d.Seconds())
		default: // failed, cancelled, stuck
			s.errors++
		}
	}
	s := r.ops["job"]
	if s == nil {
		s = &opStats{}
		r.ops["job"] = s
	}
	apply(s)
	apply(r.tenantLocked(tenant))
	switch {
	case err != nil:
	case status == http.StatusTooManyRequests:
		r.jobs.Shed++
	case status != http.StatusAccepted:
	default:
		r.jobs.Submitted++
		switch outcome {
		case "done":
			r.jobs.Completed++
		case "failed":
			r.jobs.Failed++
		case "cancelled":
			r.jobs.Cancelled++
		default: // stuck
			r.jobs.Stuck++
		}
	}
}

func (r *runStats) jobsReport() JobsReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs
}

// LatencySummary is the latency block of one report entry, milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// OpReport is one operation's (or the total's) aggregate in the report.
// Rejected is nonzero only for hostile traffic: expected 4xxs, kept apart
// from errors because a rejection is the server doing its job.
type OpReport struct {
	Requests      int            `json:"requests"`
	OK            int            `json:"ok"`
	Shed          int            `json:"shed"`
	Rejected      int            `json:"rejected,omitempty"`
	Errors        int            `json:"errors"`
	ThroughputRPS float64        `json:"throughput_rps"`
	Latency       LatencySummary `json:"latency"`
}

// TenantReport is one tenant's slice of a multi-tenant run. Admitted is
// ok + rejected — requests the fair-admission gate let through, whatever
// the handler then said about them — and AdmittedShare is this tenant's
// fraction of all admitted requests, the number the fairness CI gate
// compares against the tenant's configured weight share.
type TenantReport struct {
	OpReport
	Admitted      int     `json:"admitted"`
	AdmittedShare float64 `json:"admitted_share"`
}

// CacheReport is the server-side cache behavior over one run, computed as
// /metrics counter deltas: the invocation cache (memoized API calls) and
// the graph intern store (upload dedup). Hit rates are percentages.
type CacheReport struct {
	InvokeHits       uint64  `json:"invoke_hits"`
	InvokeMisses     uint64  `json:"invoke_misses"`
	InvokeHitRatePct float64 `json:"invoke_hit_rate_pct"`
	InternHits       uint64  `json:"intern_hits"`
	InternMisses     uint64  `json:"intern_misses"`
	InternHitRatePct float64 `json:"intern_hit_rate_pct"`
}

// JobsReport is the async-path block of the report: lifecycle outcomes of
// the jobs the run submitted and polled (the "job" op row carries their
// completion-latency percentiles), plus the post-run admission probe. A
// stuck job — accepted but never terminal within the client timeout — is
// the failure mode the CI gate watches for.
type JobsReport struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Stuck     int `json:"stuck"`
	Shed      int `json:"shed"`
	// Probe fields describe the -jobs-probe burst: how many of the rapid-fire
	// submissions the queue accepted vs shed with 429.
	ProbeSubmitted int `json:"probe_submitted,omitempty"`
	ProbeAccepted  int `json:"probe_accepted,omitempty"`
	Probe429       int `json:"probe_429,omitempty"`
}

// Report is the loadgen output schema (chatgraph.loadgen/v1). Schema is
// versioned so the perf-trajectory tooling can evolve it; the reupload,
// cache, and jobs fields are additive.
type Report struct {
	Schema      string  `json:"schema"`
	Target      string  `json:"target"`
	Mode        string  `json:"mode"`
	DurationS   float64 `json:"duration_s"`
	Concurrency int     `json:"concurrency"`
	RateRPS     float64 `json:"rate_rps,omitempty"`
	ChatFrac    float64 `json:"chat_fraction"`
	Sessions    int     `json:"sessions"`
	Reupload    bool    `json:"reupload"`
	JobsMix     float64 `json:"jobs_mix,omitempty"`
	// GraphPool is the distinct-graph pool size (zipf-selected when > 1).
	GraphPool int `json:"graph_pool,omitempty"`
	Drops     int `json:"open_loop_drops,omitempty"`
	// Reconnects counts requests that failed in transport (or answered 503)
	// and then succeeded on a -restart-grace retry — nonzero means the run
	// spanned a daemon restart or recovery window and rode it out.
	Reconnects int `json:"reconnects"`
	// Targets lists the base URLs of a multi-target (cluster) run.
	Targets []string `json:"targets,omitempty"`
	// AffinityViolations counts chats a router served off their session's
	// home backend (per the X-Backend header). Zero is the only correct
	// value; -strict enforces it.
	AffinityViolations int                 `json:"affinity_violations"`
	HealthzOK          bool                `json:"healthz_ok"`
	MetricsOK          bool                `json:"metrics_ok"`
	Total              OpReport            `json:"total"`
	Ops                map[string]OpReport `json:"ops"`
	// Backends breaks the run down by serving backend (X-Backend header),
	// present when at least one response named its backend.
	Backends map[string]OpReport `json:"backends,omitempty"`
	// Tenants breaks a -tenant-keys run down per tenant; AdmittedShare
	// sums to 1 across the entries.
	Tenants map[string]TenantReport `json:"tenants,omitempty"`
	Cache   *CacheReport            `json:"cache,omitempty"`
	Jobs    *JobsReport             `json:"jobs,omitempty"`
}

func summarize(s *opStats, elapsed time.Duration) OpReport {
	rep := OpReport{Requests: s.requests, OK: s.ok, Shed: s.shed, Rejected: s.rejected, Errors: s.errors}
	if elapsed > 0 {
		rep.ThroughputRPS = round2(float64(s.ok) / elapsed.Seconds())
	}
	if len(s.latencies) == 0 {
		return rep
	}
	sorted := append([]float64(nil), s.latencies...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	rep.Latency = LatencySummary{
		P50:  roundMS(quantile(sorted, 0.50)),
		P95:  roundMS(quantile(sorted, 0.95)),
		P99:  roundMS(quantile(sorted, 0.99)),
		Mean: roundMS(sum / float64(len(sorted))),
		Max:  roundMS(sorted[len(sorted)-1]),
	}
	return rep
}

// quantile reads the q-quantile from an ascending sample slice using the
// nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func roundMS(seconds float64) float64 { return round2(seconds * 1000) }

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

func (r *runStats) report(mode, target string, elapsed time.Duration, concurrency int, rate, chatFrac float64, sessions int, healthzOK, metricsOK bool) Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Schema:      "chatgraph.loadgen/v1",
		Target:      target,
		Mode:        mode,
		DurationS:   round2(elapsed.Seconds()),
		Concurrency: concurrency,
		ChatFrac:    chatFrac,
		Sessions:    sessions,
		Drops:       r.drops,
		HealthzOK:   healthzOK,
		MetricsOK:   metricsOK,
		Ops:         make(map[string]OpReport, len(r.ops)),
	}
	if mode == "open" {
		rep.RateRPS = rate
	}
	var total opStats
	for name, s := range r.ops {
		rep.Ops[name] = summarize(s, elapsed)
		total.latencies = append(total.latencies, s.latencies...)
		total.requests += s.requests
		total.ok += s.ok
		total.shed += s.shed
		total.rejected += s.rejected
		total.errors += s.errors
	}
	rep.Total = summarize(&total, elapsed)
	rep.AffinityViolations = r.affinity
	if len(r.backends) > 0 {
		rep.Backends = make(map[string]OpReport, len(r.backends))
		for name, s := range r.backends {
			rep.Backends[name] = summarize(s, elapsed)
		}
	}
	if len(r.tenants) > 0 {
		admittedTotal := 0
		for _, s := range r.tenants {
			admittedTotal += s.ok + s.rejected
		}
		rep.Tenants = make(map[string]TenantReport, len(r.tenants))
		for name, s := range r.tenants {
			tr := TenantReport{OpReport: summarize(s, elapsed), Admitted: s.ok + s.rejected}
			if admittedTotal > 0 {
				tr.AdmittedShare = round4(float64(tr.Admitted) / float64(admittedTotal))
			}
			rep.Tenants[name] = tr
		}
	}
	return rep
}

func (rep Report) print(w io.Writer) {
	fmt.Fprintf(w, "\nloadgen %s loop · %s · %.1fs · healthz=%v metrics=%v\n",
		rep.Mode, rep.Target, rep.DurationS, rep.HealthzOK, rep.MetricsOK)
	fmt.Fprintf(w, "%-14s %8s %8s %6s %6s %6s %10s %8s %8s %8s\n",
		"op", "requests", "ok", "shed", "rej", "errs", "thru r/s", "p50 ms", "p95 ms", "p99 ms")
	row := func(name string, s OpReport) {
		fmt.Fprintf(w, "%-14s %8d %8d %6d %6d %6d %10.1f %8.1f %8.1f %8.1f\n",
			name, s.Requests, s.OK, s.Shed, s.Rejected, s.Errors, s.ThroughputRPS,
			s.Latency.P50, s.Latency.P95, s.Latency.P99)
	}
	names := make([]string, 0, len(rep.Ops))
	for n := range rep.Ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row(n, rep.Ops[n])
	}
	row("total", rep.Total)
	if len(rep.Tenants) > 0 {
		tnames := make([]string, 0, len(rep.Tenants))
		for n := range rep.Tenants {
			tnames = append(tnames, n)
		}
		sort.Strings(tnames)
		for _, n := range tnames {
			row("t:"+n, rep.Tenants[n].OpReport)
		}
		fmt.Fprintf(w, "admitted share:")
		for _, n := range tnames {
			fmt.Fprintf(w, " %s=%.3f", n, rep.Tenants[n].AdmittedShare)
		}
		fmt.Fprintln(w)
	}
	if len(rep.Backends) > 0 {
		bnames := make([]string, 0, len(rep.Backends))
		for n := range rep.Backends {
			bnames = append(bnames, n)
		}
		sort.Strings(bnames)
		for _, n := range bnames {
			row("@"+n, rep.Backends[n])
		}
		fmt.Fprintf(w, "session-affinity violations: %d\n", rep.AffinityViolations)
	}
	if rep.Drops > 0 {
		fmt.Fprintf(w, "open-loop arrivals dropped at the client (all %d slots busy): %d\n", rep.Concurrency, rep.Drops)
	}
	if rep.Reconnects > 0 {
		fmt.Fprintf(w, "reconnects: %d requests rode out a restart/recovery window via retry\n", rep.Reconnects)
	}
	if c := rep.Cache; c != nil {
		fmt.Fprintf(w, "invoke cache %d hits / %d misses (%.1f%%) · graph intern %d hits / %d misses (%.1f%%) · reupload=%v\n",
			c.InvokeHits, c.InvokeMisses, c.InvokeHitRatePct,
			c.InternHits, c.InternMisses, c.InternHitRatePct, rep.Reupload)
	}
	if j := rep.Jobs; j != nil {
		fmt.Fprintf(w, "jobs: %d submitted · %d completed · %d failed · %d cancelled · %d stuck · %d shed\n",
			j.Submitted, j.Completed, j.Failed, j.Cancelled, j.Stuck, j.Shed)
		if j.ProbeSubmitted > 0 {
			fmt.Fprintf(w, "jobs probe: %d burst → %d accepted, %d shed with 429\n",
				j.ProbeSubmitted, j.ProbeAccepted, j.Probe429)
		}
	}
}
