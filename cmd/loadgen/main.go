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
	"errors"
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
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatalf("loadgen: %v", err)
	}
}

// errUsage is a command-line error run has already reported on stderr; main
// exits 2 for it, as flag.ExitOnError does. Every other error exits 1.
var errUsage = errors.New("usage")

// retrieveBody is every retrieve op's request: a batch of four queries at
// k = 5.
const retrieveBody = `{"k":5,"queries":["detect communities in the network","who are the most influential nodes","is the network connected","clean the knowledge graph"]}`

// run is the whole command: it parses args, drives the target, prints the
// report to stdout and returns what main turns into an exit status.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "http://localhost:8080", "base URL of the chatgraphd (or chatgraph-router) to drive")
		targets      = fs.String("targets", "", "comma-separated base URLs to spread load across (cluster mode: sessions and ops are partitioned over the targets and the report breaks results down per backend); empty = just -addr")
		duration     = fs.Duration("duration", 5*time.Second, "how long to generate load")
		concurrency  = fs.Int("concurrency", 4, "closed-loop worker count (open loop: max outstanding requests)")
		mode         = fs.String("mode", "closed", "load model: closed (workers) or open (fixed arrival rate)")
		rate         = fs.Float64("rate", 50, "open-loop arrival rate in req/s")
		chatFrac     = fs.Float64("chat-frac", 0.5, "fraction of operations that are chats (the rest are retrieves)")
		sessions     = fs.Int("sessions", 0, "session pool size (0 = same as -concurrency)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		seed         = fs.Int64("seed", 7, "workload RNG seed (graph shape, op mix)")
		reupload     = fs.Bool("reupload", true, "send the graph JSON with every chat request (the stateless-client workload); false sends question-only chats")
		jobsMix      = fs.Float64("jobs-mix", 0, "fraction of operations submitted as async jobs (POST /v1/jobs, polled to completion)")
		jobsProbe    = fs.Int("jobs-probe", 0, "after the run, burst this many job submissions without polling to measure queue-full shedding (accepted ones are cancelled)")
		jsonPath     = fs.String("json", "", "write the machine-readable report (chatgraph.loadgen/v1 schema) to this file")
		strict       = fs.Bool("strict", false, "exit 1 on any transport/status error or failed healthz//metrics probe")
		readyWait    = fs.Duration("ready-wait", 0, "before the run, wait up to this long for GET /readyz to answer 200 (daemons without the endpoint count as ready)")
		restartGrace = fs.Duration("restart-grace", 0, "retry transport errors and 503s with backoff for up to this long per request — lets a run span a daemon restart; recoveries are reported as reconnects")
		tenantKeys   = fs.String("tenant-keys", "", "comma-separated name=key list; workers and the session pool are partitioned over the named tenants, every request carries its tenant's X-API-Key, and the report breaks results down per tenant")
		hostileList  = fs.String("hostile-tenants", "", "comma-separated tenant names (from -tenant-keys) whose workers mix adversarial requests into their traffic; their expected 4xxs count as rejected, not errors")
		hostileFrac  = fs.Float64("hostile-frac", 0.5, "fraction of a hostile tenant's operations that are adversarial")
		graphsN      = fs.Int("graphs", 1, "distinct-graph pool size; > 1 picks each op's graph from a zipf popularity distribution over the pool")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		// flag stops at the first non-flag; the flags after it would be dropped.
		fmt.Fprintf(fs.Output(), "loadgen: unexpected argument %q (flags after it would be ignored)\n", fs.Arg(0))
		return errUsage
	}
	interval := time.Duration(float64(time.Second) / *rate)
	switch {
	case *mode != "closed" && *mode != "open":
		return fmt.Errorf("-mode must be closed or open, got %q", *mode)
	case *mode == "open" && interval <= 0:
		return fmt.Errorf("-rate %g is not a usable arrival rate", *rate)
	case *chatFrac < 0 || *chatFrac > 1:
		return fmt.Errorf("-chat-frac must be in [0,1], got %g", *chatFrac)
	case *jobsMix < 0 || *jobsMix > 1:
		return fmt.Errorf("-jobs-mix must be in [0,1], got %g", *jobsMix)
	case *hostileFrac < 0 || *hostileFrac > 1:
		return fmt.Errorf("-hostile-frac must be in [0,1], got %g", *hostileFrac)
	case *graphsN < 1:
		return fmt.Errorf("-graphs must be >= 1, got %d", *graphsN)
	}
	tenants, err := parseTenants(*tenantKeys, *hostileList)
	if err != nil {
		return err
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
			return errors.New("-targets supplied but empty after parsing")
		}
	}
	base := bases[0]
	h := &httpClient{client: &http.Client{Timeout: *timeout}, grace: *restartGrace}
	if *readyWait > 0 {
		for _, b := range bases {
			if !waitReady(h, b, *readyWait) {
				return fmt.Errorf("daemon at %s not ready within %s", b, *readyWait)
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
		graphJSON, err := json.Marshal(graph.PlantedCommunities(2, 10, 0.5, 0.05, rng))
		if err != nil {
			return fmt.Errorf("marshal graph %d: %w", i, err)
		}
		chatPayload := map[string]any{
			"question": "Summarize the statistics of the graph",
		}
		if *reupload {
			chatPayload["graph"] = json.RawMessage(graphJSON)
		}
		if chatBodies[i], err = json.Marshal(chatPayload); err != nil {
			return fmt.Errorf("marshal chat body: %w", err)
		}
		// Jobs always carry the graph: the async path exists for graph-heavy
		// chains, and reuploading exercises the intern layer under job
		// traffic.
		if jobBodies[i], err = jobBody(graphJSON); err != nil {
			return fmt.Errorf("marshal job body: %w", err)
		}
	}
	hostileBodies := hostilePayloads()

	// Session pool, partitioned over the targets and the tenants. Each
	// session is created under its tenant's key — sessions are
	// tenant-owned, so a worker may only chat on sessions its own key can
	// see. createdOn remembers which backend (X-Backend) answered the
	// create so every later chat on the session can be checked for
	// affinity.
	pools := make([][]poolSession, len(tenants))
	for i := 0; i < *sessions; i++ {
		ti := i % len(tenants)
		tgt := bases[i%len(bases)]
		id, backend, err := createSession(h, tgt, tenants[ti].key)
		if err != nil {
			return fmt.Errorf("create session %d on %s: %w", i, tgt, err)
		}
		pools[ti] = append(pools[ti], poolSession{base: tgt, id: id, createdOn: backend})
	}

	// Baseline cache counters: the cache block reports deltas over the run,
	// so earlier traffic against the same daemon doesn't pollute the rates.
	// Multi-target runs sum the counters across targets.
	cacheBefore, _ := scrapeMetrics(h, bases)

	stats := newRunStats()
	doOp := func(w *rand.Rand, zipf *rand.Zipf, worker int) {
		start := time.Now()
		tgt := bases[worker%len(bases)]
		tn := tenants[worker%len(tenants)]
		gi := 0
		if zipf != nil {
			gi = int(zipf.Uint64())
		}
		s := sample{tenant: tn.name}
		var r reply
		switch {
		case tn.hostile && w.Float64() < *hostileFrac:
			hb := hostileBodies[w.Intn(len(hostileBodies))]
			s.op = "hostile"
			r, s.err = h.send(http.MethodPost, tgt+hb.path, hb.body, tn.key, retry503)
		case *jobsMix > 0 && w.Float64() < *jobsMix:
			s.op = "job"
			r, s.jobState, s.err = runJob(h, tgt, jobBodies[gi], tn.key, *timeout)
		case w.Float64() < *chatFrac:
			s.op = "chat"
			sub := pools[worker%len(tenants)]
			sess := sub[(worker/len(tenants))%len(sub)]
			r, s.err = h.send(http.MethodPost, sess.base+"/v1/sessions/"+sess.id+"/chat", chatBodies[gi], tn.key, retry503)
			// Affinity check: a session's chats must land where the session
			// was created. Only checkable when both responses named a
			// backend (i.e. the target is a router).
			s.offHome = s.err == nil && r.status >= 200 && r.status < 300 &&
				sess.createdOn != "" && r.backend != "" && r.backend != sess.createdOn
		default:
			s.op = "retrieve"
			r, s.err = h.send(http.MethodPost, tgt+"/v1/retrieve", []byte(retrieveBody), tn.key, retry503)
		}
		s.status, s.backend, s.d = r.status, r.backend, time.Since(start)
		stats.record(s)
	}

	log.Printf("loadgen: %s loop against %s for %s (concurrency %d, sessions %d, tenants %d, chat-frac %.2f, jobs-mix %.2f)",
		*mode, base, *duration, *concurrency, *sessions, len(tenants), *chatFrac, *jobsMix)
	wallStart := time.Now()
	deadline := wallStart.Add(*duration)
	var wg sync.WaitGroup
	if *mode == "closed" {
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
	} else {
		// Outstanding requests are bounded by -concurrency; an arrival that
		// finds every slot busy is recorded as a local drop, mirroring what
		// a queueing client would experience.
		slots := make(chan struct{}, *concurrency)
		ticker := time.NewTicker(interval)
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
				stats.drop()
			}
		}
		ticker.Stop()
	}
	wg.Wait()
	elapsed := time.Since(wallStart)

	// Post-run observability probes: the serving layer is not healthy if it
	// cannot say it is healthy. Every target must answer; a router exposes
	// chatgraph_router_* families instead of the daemon's http counters.
	healthzOK := true
	for _, b := range bases {
		_, ok := h.get(b + "/healthz")
		healthzOK = healthzOK && ok
	}
	cacheAfter, metricsOK := scrapeMetrics(h, bases)

	report := Report{
		Schema:      "chatgraph.loadgen/v1",
		Target:      strings.Join(bases, ","),
		Mode:        *mode,
		DurationS:   round2(elapsed.Seconds()),
		Concurrency: *concurrency,
		ChatFrac:    *chatFrac,
		Sessions:    *sessions,
		Reupload:    *reupload,
		JobsMix:     *jobsMix,
		GraphPool:   *graphsN,
		Reconnects:  int(h.reconnects.Load()),
		HealthzOK:   healthzOK,
		MetricsOK:   metricsOK,
		Cache:       cacheDelta(cacheBefore, cacheAfter),
	}
	if *mode == "open" {
		report.RateRPS = *rate
	}
	if len(bases) > 1 {
		report.Targets = bases
	}
	stats.fill(&report, elapsed)
	if report.Reconnects > 0 {
		log.Printf("loadgen: %d requests recovered via retry (daemon restart or recovery window)", report.Reconnects)
	}
	if *jobsMix > 0 || *jobsProbe > 0 {
		jr := stats.jobs
		if *jobsProbe > 0 {
			jr.ProbeSubmitted = *jobsProbe
			if jr.ProbeAccepted, jr.Probe429, err = jobProbe(h, base, tenants[0].key, *seed, *jobsProbe); err != nil {
				return err
			}
		}
		report.Jobs = &jr
	}
	report.print(stdout)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *jsonPath, err)
		}
		log.Printf("loadgen: wrote %s", *jsonPath)
	}
	if !*strict {
		return nil
	}
	switch {
	case !healthzOK || !metricsOK:
		return errors.New("strict: healthz or metrics probe failed")
	case report.Total.Errors > 0:
		return fmt.Errorf("strict: %d non-2xx/429 responses", report.Total.Errors)
	case report.Total.OK == 0:
		return errors.New("strict: no successful requests")
	case report.AffinityViolations > 0:
		return fmt.Errorf("strict: %d session-affinity violations (chats served off the session's home backend)", report.AffinityViolations)
	case report.Jobs != nil && report.Jobs.Stuck > 0:
		return fmt.Errorf("strict: %d jobs stuck (never reached a terminal state)", report.Jobs.Stuck)
	}
	return nil
}

// jobBody is a job submission carrying the given graph.
func jobBody(graphJSON []byte) ([]byte, error) {
	return json.Marshal(map[string]any{
		"question": "Write a brief report for G",
		"graph":    json.RawMessage(graphJSON),
	})
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

// retryRule says which failures of one request -restart-grace rides out.
type retryRule int

const (
	// once: probes, scrapes and the job-probe burst get one attempt.
	once retryRule = iota
	// retry503: a transport error (daemon down, connection reset
	// mid-restart) or a 503 (daemon up but still replaying its WAL).
	retry503
	// retryPoll: retry503, plus a 404 — from the ungated poll route that can
	// be the same recovery window, a job in the WAL not restored yet.
	retryPoll
)

// reply is what loadgen keeps of one HTTP response.
type reply struct {
	status  int
	backend string // X-Backend, which chatgraph-router stamps on every reply
	body    []byte
}

// httpClient is loadgen's one road to the wire: every request, load or
// probe, goes through send. reconnects tallies requests that recovered
// after at least one failed attempt — the report's "reconnects".
type httpClient struct {
	client     *http.Client
	grace      time.Duration // -restart-grace
	reconnects atomic.Int64
}

// send issues one request: key (when non-empty) rides the X-API-Key header,
// the reply's X-Backend is captured and its body read to the end (which
// also keeps the connection alive). With a positive grace, a failure that
// rule names is retried with exponential backoff, each attempt a fresh
// request under the client's own timeout, until the grace expires; the
// final attempt's reply is returned either way.
func (h *httpClient) send(method, url string, body []byte, key string, rule retryRule) (reply, error) {
	attempt := func() (r reply, retry bool, err error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return r, false, err
		}
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		if key != "" {
			req.Header.Set(apiKeyHeader, key)
		}
		resp, err := h.client.Do(req)
		if err == nil {
			r.status, r.backend = resp.StatusCode, resp.Header.Get("X-Backend")
			r.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		retry = rule != once && (err != nil || r.status == http.StatusServiceUnavailable ||
			rule == retryPoll && r.status == http.StatusNotFound)
		return r, retry, err
	}
	r, retry, err := attempt()
	if !retry || h.grace <= 0 {
		return r, err
	}
	deadline := time.Now().Add(h.grace)
	for backoff := 50 * time.Millisecond; retry && time.Now().Before(deadline); {
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		r, retry, err = attempt()
	}
	if !retry && err == nil {
		h.reconnects.Add(1)
	}
	return r, err
}

// get fetches url once and returns its body, and whether it answered 200.
func (h *httpClient) get(url string) (string, bool) {
	r, err := h.send(http.MethodGet, url, nil, "", once)
	return string(r.body), err == nil && r.status == http.StatusOK
}

func createSession(h *httpClient, base, key string) (id, backend string, err error) {
	// Pool setup paces through 429s: a rate-capped daemon shedding a burst
	// of session creates is admission working, not a failure — back off and
	// finish building the pool before the measured window opens.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := h.send(http.MethodPost, base+"/v1/sessions", nil, key, retry503)
		if err != nil {
			return "", "", err
		}
		if r.status == http.StatusTooManyRequests && time.Now().Before(deadline) {
			time.Sleep(200 * time.Millisecond)
			continue
		}
		if r.status != http.StatusCreated {
			return "", "", fmt.Errorf("status %d", r.status)
		}
		var info struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(r.body, &info); err != nil {
			return "", "", fmt.Errorf("decode %s reply: %w", base+"/v1/sessions", err)
		}
		if info.SessionID == "" {
			return "", "", errors.New("empty session_id")
		}
		return info.SessionID, r.backend, nil
	}
}

// waitReady blocks until GET /readyz answers 200 — or the stdlib mux's
// plain "404 page not found", which marks a daemon predating the readiness
// probe and therefore born ready. A 404 with any other body is NOT ready:
// a router or proxy in front answers unknown routes with its own 404 shape
// long before its backends are reachable, and treating that as ready would
// start the load window into a dark pool. Transport errors (daemon still
// booting or restarting) and 503 (recovery replay in progress) keep
// polling until the wait expires.
func waitReady(h *httpClient, base string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		r, err := h.send(http.MethodGet, base+"/readyz", nil, "", once)
		if err == nil && (r.status == http.StatusOK || r.status == http.StatusNotFound &&
			strings.HasPrefix(strings.TrimSpace(string(r.body)), "404 page not found")) {
			return true
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

// runJob submits one async job and polls it to a terminal state. It returns
// the submission's reply (its status and X-Backend feed the outcome rule)
// and the job's terminal state, or "stuck" if it never settled within
// timeout.
func runJob(h *httpClient, base string, body []byte, key string, timeout time.Duration) (reply, string, error) {
	sub, err := h.send(http.MethodPost, base+"/v1/jobs", body, key, retry503)
	if err != nil || sub.status != http.StatusAccepted {
		return sub, "", err
	}
	var info jobInfo
	if err := json.Unmarshal(sub.body, &info); err != nil {
		return sub, "", fmt.Errorf("decode %s reply: %w", base+"/v1/jobs", err)
	}
	if info.JobID == "" {
		return sub, "", errors.New("job accepted but reply carried no job_id")
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		// Polling is ownership-checked: without the submitting tenant's key
		// the job answers 404.
		r, err := h.send(http.MethodGet, base+"/v1/jobs/"+info.JobID, nil, key, retryPoll)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("poll job %s: status %d: %s", info.JobID, r.status, r.body)
		}
		var st jobInfo
		if err == nil {
			err = json.Unmarshal(r.body, &st)
		}
		if err != nil {
			return sub, "", err
		}
		if st.State == "done" || st.State == "failed" || st.State == "cancelled" {
			return sub, st.State, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return sub, "stuck", nil
}

// jobProbe bursts n concurrent job submissions without polling — pure
// admission behavior: how many the queue takes before shedding with 429.
// Every submission carries a unique, larger graph so its chain misses the
// invoke cache and holds a worker for real work — a sequential burst of
// cache-warm jobs drains as fast as it fills and never observes the queue
// bound. Accepted jobs are cancelled afterwards so the probe leaves no
// stragglers running.
func jobProbe(h *httpClient, base, key string, seed int64, n int) (accepted, shed429 int, err error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		prng := rand.New(rand.NewSource(seed + 104729*int64(i+1)))
		gj, err := json.Marshal(graph.PlantedCommunities(4, 100, 0.3, 0.02, prng))
		if err != nil {
			return 0, 0, fmt.Errorf("marshal probe graph: %w", err)
		}
		if bodies[i], err = jobBody(gj); err != nil {
			return 0, 0, fmt.Errorf("marshal probe body: %w", err)
		}
	}
	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for _, body := range bodies {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			r, err := h.send(http.MethodPost, base+"/v1/jobs", body, key, once)
			if err != nil {
				return
			}
			var info jobInfo
			json.Unmarshal(r.body, &info) //nolint:errcheck // error bodies aren't jobInfo
			mu.Lock()
			defer mu.Unlock()
			switch r.status {
			case http.StatusAccepted:
				accepted++
				if info.JobID != "" {
					ids = append(ids, info.JobID)
				}
			case http.StatusTooManyRequests:
				shed429++
			}
		}(body)
	}
	wg.Wait()
	for _, id := range ids {
		// Best effort: a job whose cancel fails just runs to completion.
		h.send(http.MethodDelete, base+"/v1/jobs/"+id, nil, key, once) //nolint:errcheck
	}
	return accepted, shed429, nil
}

// cacheCounters are the raw /metrics samples the report's cache block is
// computed from. ok distinguishes a successful scrape from an absent or
// unreadable endpoint (older daemons, metrics disabled).
type cacheCounters struct {
	invokeHits, invokeMisses float64
	internHits, internMisses float64
	ok                       bool
}

// scrapeMetrics reads every target's /metrics once. metricsOK reports that
// each scrape carries the daemon's http counters (a router exposes the
// chatgraph_router_* family instead). The unlabeled cache counters — lines
// are "name value" for plain counters in the Prometheus text exposition —
// are summed across targets: in cluster mode the run's cache behavior is
// the pool's aggregate. One failed scrape poisons the sum (partial sums
// would misreport rates).
func scrapeMetrics(h *httpClient, bases []string) (c cacheCounters, metricsOK bool) {
	c.ok, metricsOK = true, true
	for _, b := range bases {
		body, ok := h.get(b + "/metrics")
		metricsOK = metricsOK && ok && (strings.Contains(body, "chatgraph_http_requests_total") ||
			strings.Contains(body, "chatgraph_router_requests_total"))
		if !ok {
			c.ok = false
			continue
		}
		for _, line := range strings.Split(body, "\n") {
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
				c.invokeHits += v
			case "chatgraph_invoke_cache_misses_total":
				c.invokeMisses += v
			case "chatgraph_graphstore_hits_total":
				c.internHits += v
			case "chatgraph_graphstore_misses_total":
				c.internMisses += v
			}
		}
	}
	return c, metricsOK
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

// outcome is the report column one sample lands in.
type outcome int

const (
	outOK outcome = iota
	outShed
	// outRejected is an expected 4xx to a hostile tenant's adversarial
	// request — the server saying no, which is the desired outcome.
	outRejected
	outError
	nOutcomes
)

// classify is loadgen's one outcome rule (DESIGN.md "Load generator" has it
// as a table). 429 is shed, not an error — shedding is the admission policy
// working as designed. A hostile request's other 4xxs are rejections; a 2xx
// to one is counted ok, so the anomaly stays visible. A job is ok only when
// it was accepted and completed — its latency is submit-to-done — and one
// that fails, is cancelled or never settles is an error.
func classify(op string, status int, err error, jobState string) outcome {
	switch {
	case err != nil:
		return outError
	case status == http.StatusTooManyRequests:
		return outShed
	case op == "hostile" && status >= 400 && status < 500:
		return outRejected
	case op == "job":
		if status == http.StatusAccepted && jobState == "done" {
			return outOK
		}
		return outError
	case status >= 200 && status < 300:
		return outOK
	}
	return outError
}

// sample is one finished operation, as a worker hands it to record.
type sample struct {
	op, tenant, backend string // tenant and backend are empty when unknown
	status              int    // 0 on a transport error
	err                 error
	jobState            string // a job's terminal state, or "stuck"
	offHome             bool   // a chat a router served off its session's home backend
	d                   time.Duration
}

// opStats accumulates one report row's samples.
type opStats struct {
	n         [nOutcomes]int // samples per outcome
	latencies []float64      // seconds, ok samples only
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

// record classifies s once and counts it in its op row, its tenant row
// (-tenant-keys runs) and its backend row (responses that named one), so
// the three breakdowns always agree about the same sample.
func (r *runStats) record(s sample) {
	o := classify(s.op, s.status, s.err, s.jobState)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range [...]*opStats{rowLocked(r.ops, s.op), rowLocked(r.tenants, s.tenant), rowLocked(r.backends, s.backend)} {
		if st == nil {
			continue
		}
		st.n[o]++
		if o == outOK {
			st.latencies = append(st.latencies, s.d.Seconds())
		}
	}
	if s.offHome {
		r.affinity++
	}
	// The jobs block breaks the job row's outcomes down by lifecycle.
	switch {
	case s.op != "job":
	case o == outShed:
		r.jobs.Shed++
	case s.err == nil && s.status == http.StatusAccepted:
		r.jobs.Submitted++
		switch s.jobState {
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

// rowLocked returns m's row for name, creating it; nil for an empty name
// (no tenant outside -tenant-keys, no backend when no router answered).
func rowLocked(m map[string]*opStats, name string) *opStats {
	if name == "" {
		return nil
	}
	st := m[name]
	if st == nil {
		st = &opStats{}
		m[name] = st
	}
	return st
}

func (r *runStats) drop() {
	r.mu.Lock()
	r.drops++
	r.mu.Unlock()
}

// fill writes the collected rows into rep.
func (r *runStats) fill(rep *Report, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep.Drops, rep.AffinityViolations = r.drops, r.affinity
	rep.Ops = make(map[string]OpReport, len(r.ops))
	var total opStats
	for name, s := range r.ops {
		rep.Ops[name] = summarize(s, elapsed)
		total.latencies = append(total.latencies, s.latencies...)
		for o, n := range s.n {
			total.n[o] += n
		}
	}
	rep.Total = summarize(&total, elapsed)
	if len(r.backends) > 0 {
		rep.Backends = make(map[string]OpReport, len(r.backends))
		for name, s := range r.backends {
			rep.Backends[name] = summarize(s, elapsed)
		}
	}
	if len(r.tenants) > 0 {
		admittedTotal := 0
		for _, s := range r.tenants {
			admittedTotal += s.n[outOK] + s.n[outRejected]
		}
		rep.Tenants = make(map[string]TenantReport, len(r.tenants))
		for name, s := range r.tenants {
			tr := TenantReport{OpReport: summarize(s, elapsed), Admitted: s.n[outOK] + s.n[outRejected]}
			if admittedTotal > 0 {
				tr.AdmittedShare = round4(float64(tr.Admitted) / float64(admittedTotal))
			}
			rep.Tenants[name] = tr
		}
	}
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
	rep := OpReport{OK: s.n[outOK], Shed: s.n[outShed], Rejected: s.n[outRejected], Errors: s.n[outError]}
	rep.Requests = rep.OK + rep.Shed + rep.Rejected + rep.Errors
	if elapsed > 0 {
		rep.ThroughputRPS = round2(float64(rep.OK) / elapsed.Seconds())
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
