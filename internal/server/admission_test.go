package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/llm"
	"chatgraph/internal/metrics"
	"chatgraph/internal/ratelimit"
	"chatgraph/internal/tenant"
)

// slowClient is an llm.Client that holds every completion for delay (or
// until the context dies), then emits a fixed one-step chain — the knob the
// admission tests use to keep requests in flight.
type slowClient struct {
	delay time.Duration
}

func (c *slowClient) Generate(ctx context.Context, _ llm.Request) (chain.Chain, error) {
	select {
	case <-time.After(c.delay):
		return chain.Chain{{API: "graph.stats"}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// slowEngine builds a tiny engine whose chats block for delay.
func slowEngine(t *testing.T, delay time.Duration) *core.Engine {
	t.Helper()
	env := &apis.Env{}
	eng, err := core.NewEngine(core.Config{Registry: apis.Default(env), Env: env, Client: &slowClient{delay: delay}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newAdmissionServer(t *testing.T, eng *core.Engine, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	srv := newServer(t, eng, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func chatBody(t *testing.T) []byte {
	t.Helper()
	data, err := json.Marshal(ChatRequest{Question: "Summarize the statistics of the graph", Graph: socialGraphJSON(t, 7)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// concurrently runs fn(i) for every i in [0, n), each on its own goroutine
// as each request is on its own connection, and returns when all have.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestInFlightShedding holds a MaxInFlight=1 server's only slot with a slow
// background chat, then fans in 6 more concurrent requests: every one must
// come back 429 with Retry-After (never any other error), the admitted chat
// must succeed, and the gate must reopen afterwards. The slot is provably
// occupied for the whole burst, so the burst's concurrency level doesn't
// matter.
func TestInFlightShedding(t *testing.T) {
	eng := slowEngine(t, 600*time.Millisecond)
	srv, ts := newAdmissionServer(t, eng, Options{MaxInFlight: 1})

	holder := mustCreateSession(t, ts)
	burster := mustCreateSession(t, ts)
	body := chatBody(t)

	heldStatus := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+holder.SessionID+"/chat", "application/json", bytes.NewReader(body))
		if err != nil {
			heldStatus <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		heldStatus <- resp.StatusCode
	}()
	// Wait until the holder actually occupies the gate.
	deadline := time.Now().Add(5 * time.Second)
	for srv.hm.gatedInFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder chat never entered the gate")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const n = 6
	var shed, other atomic.Int64
	var missingRetryAfter atomic.Int64
	concurrently(n, func(i int) {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+burster.SessionID+"/chat", "application/json", bytes.NewReader(body))
		if err != nil {
			other.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			other.Add(1)
			return
		}
		shed.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			missingRetryAfter.Add(1)
		}
	})
	if other.Load() != 0 {
		t.Fatalf("non-429 responses while the gate was held: %d (shed=%d)", other.Load(), shed.Load())
	}
	if shed.Load() != n {
		t.Fatalf("shed %d of %d burst requests", shed.Load(), n)
	}
	if missingRetryAfter.Load() != 0 {
		t.Fatalf("%d shed responses lacked Retry-After", missingRetryAfter.Load())
	}
	// The admitted request was never disturbed by the burst.
	if got := <-heldStatus; got != http.StatusOK {
		t.Fatalf("holder chat status = %d", got)
	}
	// The shed counter and the exposition agree.
	if got := srv.hm.shedInFlight.Value(); got != uint64(shed.Load()) {
		t.Fatalf("shed metric = %d, observed %d", got, shed.Load())
	}
	var b strings.Builder
	srv.hm.reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `chatgraph_http_shed_total{reason="in_flight"}`) {
		t.Fatalf("exposition missing shed counter:\n%s", b.String())
	}
	// Gate reopens once the holder finishes: a fresh chat succeeds.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+burster.SessionID+"/chat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst chat status = %d", resp.StatusCode)
	}
}

// TestNoSheddingBelowCap proves the gate is invisible under the cap: as
// many concurrent chats as MaxInFlight, zero 429s, zero errors.
func TestNoSheddingBelowCap(t *testing.T) {
	const slots = 4
	eng := slowEngine(t, 100*time.Millisecond)
	_, ts := newAdmissionServer(t, eng, Options{MaxInFlight: slots})

	// One session per request: per-session Ask serialization must not make
	// requests pile up in the gate.
	ids := make([]string, slots)
	for i := range ids {
		ids[i] = mustCreateSession(t, ts).SessionID
	}
	body := chatBody(t)
	var bad atomic.Int64
	concurrently(slots, func(i int) {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+ids[i]+"/chat", "application/json", bytes.NewReader(body))
		if err != nil {
			bad.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d requests failed below the in-flight cap", bad.Load())
	}
}

// TestHealthzAndMetricsBypassGate: with the server saturated, /healthz and
// /metrics must still answer 200 — an overloaded server has to be able to
// say so.
func TestHealthzAndMetricsBypassGate(t *testing.T) {
	eng := slowEngine(t, 500*time.Millisecond)
	srv, ts := newAdmissionServer(t, eng, Options{MaxInFlight: 1})

	holdGate(t, srv, ts, "")
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s during saturation: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during saturation: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "chatgraph_http_gated_in_flight 1") {
			t.Fatalf("/metrics does not show the saturated gate:\n%s", body)
		}
	}
}

// TestTokenBucketRefill pins the bucket math as the tenant and global
// limiters use it (the shared bucket's own arithmetic test lives in
// internal/ratelimit):
// drained bucket, deterministic clock, token-per-second refill.
func TestTokenBucketRefill(t *testing.T) {
	var b ratelimit.Bucket
	now := time.Unix(1000, 0)
	if ok, _ := b.Take(1, 1, now); !ok {
		t.Fatal("first take from a full bucket failed")
	}
	ok, retry := b.Take(1, 1, now)
	if ok {
		t.Fatal("second immediate take should fail at burst 1")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 1s]", retry)
	}
	// Half a second later: still empty.
	if ok, _ := b.Take(1, 1, now.Add(500*time.Millisecond)); ok {
		t.Fatal("bucket refilled too fast")
	}
	// After the advertised wait, a token is available. The failed take at
	// +500ms already banked half a token, so +1.5s is comfortably enough.
	if ok, _ := b.Take(1, 1, now.Add(1500*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after 1.5s at 1 rps")
	}
}

// TestRequestTimeout bounds a stuck chain: the LLM hangs longer than the
// request deadline, so the chat answers 504 and the session lock frees in
// deadline time, not hang time.
func TestRequestTimeout(t *testing.T) {
	eng := slowEngine(t, 10*time.Second)
	_, ts := newAdmissionServer(t, eng, Options{RequestTimeout: 200 * time.Millisecond})
	info := mustCreateSession(t, ts)

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/sessions/"+info.SessionID+"/chat", "application/json", bytes.NewReader(chatBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %+v)", resp.StatusCode, eb)
	}
	if eb.Error == "" || eb.RequestID == "" {
		t.Fatalf("error body = %+v", eb)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; the deadline did not bound the request", elapsed)
	}
	// The session is usable again immediately — the stuck chain released it.
	hresp, err := http.Get(ts.URL + "/v1/sessions/" + info.SessionID + "/history")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("history after timeout = %d", hresp.StatusCode)
	}
}

// TestMetricsEndpointShape asserts the acceptance-criteria metrics exist on
// a served /metrics after real traffic: latency histograms per route, cache
// hit/miss counters, and session gauges.
func TestMetricsEndpointShape(t *testing.T) {
	// The shared test server instruments into the default registry and has
	// taken chat + retrieve traffic from the other tests; drive one of each
	// here so this test also passes under -run.
	ts := testServer(t)
	info := mustCreateSession(t, ts)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+info.SessionID+"/chat", "application/json", bytes.NewReader(chatBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chat status = %d", resp.StatusCode)
	}
	rresp := postRetrieve(t, `{"queries":["communities"],"k":3}`)
	io.Copy(io.Discard, rresp.Body) //nolint:errcheck
	rresp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`chatgraph_http_requests_total{class="2xx",route="v1.chat"}`,
		`chatgraph_http_request_duration_seconds_bucket{route="v1.chat",le="+Inf"}`,
		`chatgraph_http_request_duration_seconds_count{route="v1.retrieve"}`,
		"chatgraph_http_in_flight",
		"chatgraph_sessions_live",
		"chatgraph_sessions_created_total",
		"chatgraph_invoke_cache_hits_total",
		"chatgraph_invoke_cache_misses_total",
		"chatgraph_invoke_cache_evictions_total",
		"chatgraph_engine_asks_total",
		"chatgraph_engine_ask_duration_seconds_bucket",
		"chatgraph_executor_steps_total",
		`chatgraph_executor_chains_total{outcome="ok"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q\n---\n%s", want, out)
		}
	}
}

// mustCreateSession creates a session on an arbitrary test server (the
// createSession helper is pinned to the shared one).
func mustCreateSession(t *testing.T, ts *httptest.Server) SessionInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// holdGate occupies one admission slot with a chat that stays in flight for
// the engine's delay, returning once the slot is provably held; the cleanup
// waits the chat out.
func holdGate(t *testing.T, srv *Server, ts *httptest.Server, key string) {
	t.Helper()
	sid := doReqJSON(t, http.MethodPost, ts.URL+"/v1/sessions", key, nil).body["session_id"].(string)
	done := make(chan struct{})
	go func() {
		defer close(done)
		doReq(t, http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/chat", key, chatBody(t))
	}()
	t.Cleanup(func() { <-done })
	deadline := time.Now().Add(5 * time.Second)
	for srv.hm.gatedInFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder chat never entered the gate")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionOrder pins the order of the admission stages (ready → resolve
// key → fair gate → tenant rate → global rate): a request that would fail two
// stages is answered by the earlier one, and the later one is not charged —
// no counter of the later stage moves and no token of it is spent. Every
// probe is a POST /v1/retrieve, the cheapest gated route.
func TestAdmissionOrder(t *testing.T) {
	probeBody := []byte(`{"queries":["communities"],"k":3}`)
	probe := func(t *testing.T, ts *httptest.Server, key string) *http.Response {
		return doReq(t, http.MethodPost, ts.URL+"/v1/retrieve", key, probeBody)
	}
	// Two weight-1 tenants over capacity 1 with anonymous disabled: both
	// guaranteed shares floor to 0 and the one slot is the shared borrow
	// pool, so whoever holds it puts every other request over its fair share.
	// "metered" has a one-token bucket that takes hours to refill.
	twoTenants := func(t *testing.T) *tenant.Registry {
		return mustRegistry(t, &tenant.Config{
			Tenants: []tenant.TenantConfig{
				{Name: "holder", Keys: []string{"k-holder"}},
				{Name: "metered", Keys: []string{"k-metered"}, Quota: tenant.Quota{RPS: 0.0001, Burst: 1}},
			},
			Anonymous: &tenant.AnonymousConfig{Disabled: true},
		})
	}
	cases := []struct {
		name string
		// run builds the server, drives it into the doubly-failing state, and
		// returns the probe's response.
		run    func(t *testing.T) (*Server, *http.Response)
		status int
		// want lists exposition lines that must be present afterwards: the
		// answering stage's counter at 1, the later stage's at 0.
		want []string
	}{
		{
			name: "not ready + bad key",
			run: func(t *testing.T) (*Server, *http.Response) {
				srv, ts := newAdmissionServer(t, slowEngine(t, 0), Options{Tenants: twoTenants(t)})
				srv.ready.Store(false)
				return srv, probe(t, ts, "k-bogus")
			},
			status: http.StatusServiceUnavailable,
			want:   []string{`chatgraph_auth_failures_total{reason="unknown_key"} 0`},
		},
		{
			name: "bad key + full gate",
			run: func(t *testing.T) (*Server, *http.Response) {
				srv, ts := newAdmissionServer(t, slowEngine(t, 300*time.Millisecond), Options{Tenants: twoTenants(t), MaxInFlight: 1})
				holdGate(t, srv, ts, "k-holder")
				return srv, probe(t, ts, "k-bogus")
			},
			status: http.StatusUnauthorized,
			want: []string{
				`chatgraph_auth_failures_total{reason="unknown_key"} 1`,
				`chatgraph_http_shed_total{reason="in_flight"} 0`,
			},
		},
		{
			name: "over fair share + empty tenant bucket",
			run: func(t *testing.T) (*Server, *http.Response) {
				srv, ts := newAdmissionServer(t, slowEngine(t, 300*time.Millisecond), Options{Tenants: twoTenants(t), MaxInFlight: 1})
				if resp := probe(t, ts, "k-metered"); resp.StatusCode != http.StatusOK {
					t.Fatalf("draining the metered bucket = %d, want 200", resp.StatusCode)
				}
				holdGate(t, srv, ts, "k-holder")
				return srv, probe(t, ts, "k-metered")
			},
			status: http.StatusTooManyRequests,
			want: []string{
				`chatgraph_tenant_shed_total{reason="fair_share",tenant="metered"} 1`,
				`chatgraph_tenant_shed_total{reason="tenant_rate",tenant="metered"} 0`,
				`chatgraph_http_shed_total{reason="tenant_rate"} 0`,
			},
		},
		{
			name: "tenant ok + global bucket empty",
			run: func(t *testing.T) (*Server, *http.Response) {
				srv, ts := newAdmissionServer(t, slowEngine(t, 0), Options{Tenants: twoTenants(t), MaxRPS: 0.25})
				if resp := probe(t, ts, "k-holder"); resp.StatusCode != http.StatusOK {
					t.Fatalf("draining the global bucket = %d, want 200", resp.StatusCode)
				}
				return srv, probe(t, ts, "k-holder")
			},
			status: http.StatusTooManyRequests,
			want: []string{
				`chatgraph_http_shed_total{reason="max_rps"} 1`,
				`chatgraph_http_shed_total{reason="tenant_rate"} 0`,
				`chatgraph_http_shed_total{reason="in_flight"} 0`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, resp := tc.run(t)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
					t.Fatalf("Retry-After = %q on a %d, want an integer ≥ 1", resp.Header.Get("Retry-After"), resp.StatusCode)
				}
			}
			var b strings.Builder
			srv.hm.reg.WritePrometheus(&b)
			for _, want := range tc.want {
				if !strings.Contains(b.String(), want+"\n") {
					t.Errorf("exposition missing %q:\n%s", want, b.String())
				}
			}
		})
	}

	// A request shed at the fair gate keeps its tenant token: the metered
	// tenant's only token survives a gate refusal and admits it afterwards.
	t.Run("gate refusal spends no tenant token", func(t *testing.T) {
		srv, ts := newAdmissionServer(t, slowEngine(t, 300*time.Millisecond), Options{Tenants: twoTenants(t), MaxInFlight: 1})
		holdGate(t, srv, ts, "k-holder")
		if resp := probe(t, ts, "k-metered"); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("probe against a held gate = %d, want 429", resp.StatusCode)
		}
		for deadline := time.Now().Add(5 * time.Second); srv.hm.gatedInFlight.Value() != 0; {
			if time.Now().After(deadline) {
				t.Fatal("holder chat never left the gate")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if resp := probe(t, ts, "k-metered"); resp.StatusCode != http.StatusOK {
			t.Fatalf("after the gate reopened = %d, want 200: the refused request spent the tenant's only token", resp.StatusCode)
		}
	})
}
