package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/llm"
	"chatgraph/internal/metrics"
	"chatgraph/internal/server"
)

func jsonBody(v any) io.Reader {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return bytes.NewReader(data)
}

func jsonRaw(b []byte) io.Reader { return bytes.NewReader(b) }

// testPool builds a pool over synthetic backend names (no live servers)
// with an isolated metrics registry.
func testPool(t *testing.T, hosts ...string) *Pool {
	t.Helper()
	urls := make([]string, len(hosts))
	for i, h := range hosts {
		urls[i] = "http://" + h
	}
	p, err := NewPool(urls, Policy{}, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHRWStability pins rendezvous hashing's defining property: removing
// one backend re-homes exactly the keys it owned (~1/N of the keyspace)
// and not one key owned by a survivor. This is what makes sessions survive
// a pool member's death without a routing table.
func TestHRWStability(t *testing.T) {
	hosts := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"}
	full := testPool(t, hosts...)
	reduced := testPool(t, hosts[:3]...) // drop 10.0.0.4
	const removed = "10.0.0.4:8080"

	const n = 10000
	moved, ownedByRemoved := 0, 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("session-%d", i)
		before := full.Owner(key).Name
		after := reduced.Owner(key).Name
		if before == removed {
			ownedByRemoved++
			continue // must move; anywhere among survivors is correct
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by survivors re-homed; rendezvous must move zero", moved)
	}
	// The removed backend should have owned ~1/4 of the keyspace.
	frac := float64(ownedByRemoved) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("removed backend owned %.1f%% of keys, want ~25%%", 100*frac)
	}
}

// TestHRWBalance checks the four backends split the keyspace roughly
// evenly — a skewed split would make one replica the hot shard.
func TestHRWBalance(t *testing.T) {
	p := testPool(t, "a:1", "b:1", "c:1", "d:1")
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[p.Owner(fmt.Sprintf("key-%d", i)).Name]++
	}
	for name, c := range counts {
		frac := float64(c) / n
		if frac < 0.20 || frac > 0.30 {
			t.Fatalf("backend %s owns %.1f%% of keys, want ~25%%", name, 100*frac)
		}
	}
}

// TestOwnerIgnoresHealth pins the identity-vs-availability split: Owner is
// computed over full membership even when the owner is down (the session
// is unavailable, not re-homed), while FirstRoutable walks past it.
func TestOwnerIgnoresHealth(t *testing.T) {
	p := testPool(t, "a:1", "b:1", "c:1")
	const key = "some-session-id"
	owner := p.Owner(key)
	for _, b := range p.backends {
		if b != owner {
			b.MarkSuccess()
		}
	}
	// Owner stays down (born down, never probed up).
	if got := p.Owner(key); got != owner {
		t.Fatalf("Owner moved to %s when the true owner went down", got.Name)
	}
	fr := p.FirstRoutable(key)
	if fr == nil || fr == owner {
		t.Fatalf("FirstRoutable = %v, want a routable non-owner", fr)
	}
	// It must also be the *next* hop in rank order, not an arbitrary one.
	rank := p.Rank(key)
	if rank[0] != owner || fr != rank[1] {
		t.Fatalf("rank order violated: rank[0]=%s rank[1]=%s first-routable=%s",
			rank[0].Name, rank[1].Name, fr.Name)
	}
}

// TestMintKeyFor verifies minted keys land on the requested backend — the
// mechanism that pins freshly created sessions and jobs to the placement
// target.
func TestMintKeyFor(t *testing.T) {
	p := testPool(t, "a:1", "b:1", "c:1", "d:1")
	for _, target := range p.backends {
		for i := 0; i < 8; i++ {
			key := p.MintKeyFor(target)
			if got := p.Owner(key); got != target {
				t.Fatalf("minted key %q owned by %s, want %s", key, got.Name, target.Name)
			}
		}
	}
}

// TestFailureStateMachine walks the marking machine end to end: born down,
// promoted by success, tolerant of FailAfter-1 blips, down on the Nth,
// cooled down before half-open, and straight back down on a failed
// recovery probe.
func TestFailureStateMachine(t *testing.T) {
	reg := metrics.NewRegistry()
	p, err := NewPool([]string{"http://a:1"}, Policy{FailAfter: 3, RecoverAfter: 50 * time.Millisecond}, reg)
	if err != nil {
		t.Fatal(err)
	}
	b := p.backends[0]

	if b.State() != StateDown || b.Routable() {
		t.Fatalf("born state = %s, want down", b.State())
	}
	b.MarkSuccess()
	if b.State() != StateUp || !b.Routable() {
		t.Fatalf("after success state = %s, want up", b.State())
	}
	// FailAfter-1 consecutive failures keep it up; a success resets.
	b.MarkFailure()
	b.MarkFailure()
	if b.State() != StateUp {
		t.Fatalf("after 2 failures state = %s, want up", b.State())
	}
	b.MarkSuccess()
	b.MarkFailure()
	b.MarkFailure()
	if b.State() != StateUp {
		t.Fatalf("success must reset the failure count; state = %s", b.State())
	}
	b.MarkFailure()
	if b.State() != StateDown {
		t.Fatalf("after 3 consecutive failures state = %s, want down", b.State())
	}
	// Cooldown gates the recovery probe.
	if b.BeginProbe(time.Now()) {
		t.Fatal("BeginProbe allowed before cooldown")
	}
	if !b.BeginProbe(time.Now().Add(60 * time.Millisecond)) {
		t.Fatal("BeginProbe refused after cooldown")
	}
	if b.State() != StateHalfOpen || b.Routable() {
		t.Fatalf("state = %s, want half-open (and not routable)", b.State())
	}
	// A half-open backend is not probed twice concurrently.
	if b.BeginProbe(time.Now().Add(time.Hour)) {
		t.Fatal("BeginProbe allowed while half-open")
	}
	// Failed recovery probe: straight back down, one strike.
	b.MarkFailure()
	if b.State() != StateDown {
		t.Fatalf("failed recovery probe left state %s, want down", b.State())
	}
	if !b.BeginProbe(time.Now().Add(time.Hour)) {
		t.Fatal("BeginProbe refused after fresh cooldown")
	}
	b.MarkSuccess()
	if b.State() != StateUp {
		t.Fatalf("successful recovery probe left state %s, want up", b.State())
	}
}

// --- router tests against fake backends ---

// fakeBackend is a minimal chatgraphd stand-in: healthy, ready, and it
// records what the router forwarded. Unlike chatgraphd it neither mints
// nor echoes X-Request-ID, so any id a client sees came from the router.
type fakeBackend struct {
	ts *httptest.Server

	mu        sync.Mutex
	hits      []string
	ids       []string // X-Request-ID of each hit
	jobBodies [][]byte
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	mux := http.NewServeMux()
	ok := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v) //nolint:errcheck
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { ok(w, map[string]string{"status": "ok"}) })
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { ok(w, map[string]string{"status": "ok"}) })
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			SessionID string `json:"session_id"`
		}
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		w.WriteHeader(http.StatusCreated)
		ok(w, map[string]string{"session_id": req.SessionID})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		ok(w, map[string][]string{"sessions": {f.name() + "-s1", f.name() + "-s2"}})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, 0, 1024)
		buf := make([]byte, 1024)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		f.mu.Lock()
		f.jobBodies = append(f.jobBodies, body)
		f.mu.Unlock()
		var req struct {
			JobID string `json:"job_id"`
		}
		json.Unmarshal(body, &req) //nolint:errcheck
		w.WriteHeader(http.StatusAccepted)
		ok(w, map[string]string{"job_id": req.JobID})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		ok(w, map[string]string{"served_by": f.name(), "path": r.URL.Path})
	})
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits = append(f.hits, r.Method+" "+r.URL.Path)
		f.ids = append(f.ids, r.Header.Get("X-Request-ID"))
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeBackend) name() string { return f.ts.Listener.Addr().String() }

func (f *fakeBackend) hitCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.hits)
}

// lastID is the X-Request-ID of the backend's latest hit.
func (f *fakeBackend) lastID() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ids) == 0 {
		return ""
	}
	return f.ids[len(f.ids)-1]
}

// testRouter wires fakes into a pool, probes them up synchronously, and
// serves the router.
func testRouter(t *testing.T, fakes ...*fakeBackend) (*Pool, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.ts.URL
	}
	reg := metrics.NewRegistry()
	pool, err := NewPool(urls, Policy{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	NewProber(pool, time.Hour, time.Second).ProbeOnce()
	for _, b := range pool.Backends() {
		if !b.Routable() {
			t.Fatalf("backend %s not up after probe", b.Name)
		}
	}
	rt := httptest.NewServer(NewRouter(pool, Options{Registry: reg}).Handler())
	t.Cleanup(rt.Close)
	return pool, rt
}

// TestRouterSessionAffinity creates sessions through the router and checks
// every follow-up request for a session lands on the backend that created
// it — and that the backend matches the rendezvous owner of the minted id.
func TestRouterSessionAffinity(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	pool, rt := testRouter(t, f1, f2)

	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		resp, err := http.Post(rt.URL+"/v1/sessions", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var created struct {
			SessionID string `json:"session_id"`
		}
		json.NewDecoder(resp.Body).Decode(&created) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || created.SessionID == "" {
			t.Fatalf("create: status=%d id=%q", resp.StatusCode, created.SessionID)
		}
		createdOn := resp.Header.Get("X-Backend")
		if want := pool.Owner(created.SessionID).Name; createdOn != want {
			t.Fatalf("session %s created on %s, but rendezvous owner is %s", created.SessionID, createdOn, want)
		}
		seen[createdOn] = true
		for j := 0; j < 3; j++ {
			hr, err := http.Get(rt.URL + "/v1/sessions/" + created.SessionID + "/history")
			if err != nil {
				t.Fatal(err)
			}
			hr.Body.Close()
			if got := hr.Header.Get("X-Backend"); got != createdOn {
				t.Fatalf("session %s follow-up landed on %s, created on %s", created.SessionID, got, createdOn)
			}
		}
	}
	// 16 sessions over 2 backends: both sides of the hash should be hit.
	if len(seen) != 2 {
		t.Fatalf("all sessions landed on one backend: %v", seen)
	}
}

// TestRouterOwnerDownIs503 pins the no-re-home rule: when a session's
// owner is down, its requests answer 503 naming the owner — they are never
// silently served by a backend that has no such session.
func TestRouterOwnerDownIs503(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	pool, rt := testRouter(t, f1, f2)

	resp, err := http.Post(rt.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	json.NewDecoder(resp.Body).Decode(&created) //nolint:errcheck
	resp.Body.Close()

	owner := pool.Owner(created.SessionID)
	var other *Backend
	for _, b := range pool.Backends() {
		if b != owner {
			other = b
		}
	}
	otherHits := 0
	for _, f := range []*fakeBackend{f1, f2} {
		if f.name() == other.Name {
			otherHits = f.hitCount()
		}
	}
	// Take the owner down administratively.
	for i := 0; i < 3; i++ {
		owner.MarkFailure()
	}

	hr, err := http.Get(rt.URL + "/v1/sessions/" + created.SessionID + "/history")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("owner-down status = %d, want 503", hr.StatusCode)
	}
	if got := hr.Header.Get("X-Backend"); got != owner.Name {
		t.Fatalf("503 names backend %q, want the down owner %q", got, owner.Name)
	}
	for _, f := range []*fakeBackend{f1, f2} {
		if f.name() == other.Name && f.hitCount() != otherHits {
			t.Fatal("surviving backend was asked about a session it does not own")
		}
	}
}

// TestRouterNeverRetriesNonIdempotent sends a chat POST whose owner is
// unreachable (marked up, but the socket is dead): the router must answer
// 502 without replaying the POST onto the surviving backend.
func TestRouterNeverRetriesNonIdempotent(t *testing.T) {
	dead := newFakeBackend(t)
	live := newFakeBackend(t)
	pool, rt := testRouter(t, dead, live)
	deadName := dead.name()
	dead.ts.Close() // socket gone, state still up

	var deadB *Backend
	for _, b := range pool.Backends() {
		if b.Name == deadName {
			deadB = b
		}
	}
	key := pool.MintKeyFor(deadB)
	liveBefore := live.hitCount()

	resp, err := http.Post(rt.URL+"/v1/sessions/"+key+"/chat", "application/json",
		jsonBody(map[string]string{"question": "q"}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-owner chat status = %d, want 502", resp.StatusCode)
	}
	if live.hitCount() != liveBefore {
		t.Fatal("non-idempotent chat POST was replayed onto another backend")
	}
}

// TestRouterRetriesIdempotent drives idempotent GETs through a pool with a
// dead-but-marked-up member: every request must still succeed via the next
// hop, and the retry counter must move.
func TestRouterRetriesIdempotent(t *testing.T) {
	dead := newFakeBackend(t)
	live := newFakeBackend(t)
	urls := []string{dead.ts.URL, live.ts.URL}
	reg := metrics.NewRegistry()
	pool, err := NewPool(urls, Policy{FailAfter: 100}, reg) // high threshold: stays "up" while dead
	if err != nil {
		t.Fatal(err)
	}
	NewProber(pool, time.Hour, time.Second).ProbeOnce()
	router := NewRouter(pool, Options{Registry: reg})
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(rt.Close)
	dead.ts.Close()

	for i := 0; i < 4; i++ {
		resp, err := http.Get(rt.URL + "/apis")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("idempotent GET %d status = %d, want 200 via next hop", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Backend"); got != live.name() {
			t.Fatalf("GET served by %q, want %q", got, live.name())
		}
	}
	if router.retries.Value() == 0 {
		t.Fatal("round-robin never started on the dead backend; retry path untested")
	}
}

// TestRouterFanoutMergesLists checks GET /v1/sessions through the router
// is the union of every backend's list.
func TestRouterFanoutMergesLists(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	_, rt := testRouter(t, f1, f2)

	resp, err := http.Get(rt.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fanout status = %d", resp.StatusCode)
	}
	var payload struct {
		Sessions []string `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Sessions) != 4 {
		t.Fatalf("merged %d sessions, want 4 (2 per backend): %v", len(payload.Sessions), payload.Sessions)
	}
}

// TestRouterJobPlacementByContent submits the same graph-bearing job body
// twice: both must land on the same backend (content-hash placement) with
// a job id whose rendezvous owner is that backend, so later polls follow.
func TestRouterJobPlacementByContent(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	pool, rt := testRouter(t, f1, f2)

	body := []byte(`{"question":"Summarize the statistics of the graph","graph":{"nodes":[{"id":0},{"id":1},{"id":2}],"edges":[{"from":0,"to":1},{"from":1,"to":2}]}}`)
	var landed []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(rt.URL+"/v1/jobs", "application/json", jsonRaw(body))
		if err != nil {
			t.Fatal(err)
		}
		var created struct {
			JobID string `json:"job_id"`
		}
		json.NewDecoder(resp.Body).Decode(&created) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || created.JobID == "" {
			t.Fatalf("submit %d: status=%d id=%q", i, resp.StatusCode, created.JobID)
		}
		backend := resp.Header.Get("X-Backend")
		landed = append(landed, backend)
		if want := pool.Owner(created.JobID).Name; want != backend {
			t.Fatalf("job %s landed on %s but its id is owned by %s", created.JobID, backend, want)
		}
	}
	if landed[0] != landed[1] {
		t.Fatalf("same graph placed on two backends: %v", landed)
	}
	// The forwarded body must still carry the original fields next to the
	// injected job_id.
	for _, f := range []*fakeBackend{f1, f2} {
		f.mu.Lock()
		for _, b := range f.jobBodies {
			var req struct {
				JobID    string          `json:"job_id"`
				Question string          `json:"question"`
				Graph    json.RawMessage `json:"graph"`
			}
			if err := json.Unmarshal(b, &req); err != nil {
				f.mu.Unlock()
				t.Fatalf("forwarded job body unparseable: %v", err)
			}
			if req.JobID == "" || req.Question == "" || len(req.Graph) == 0 {
				f.mu.Unlock()
				t.Fatalf("forwarded job body lost fields: %s", b)
			}
		}
		f.mu.Unlock()
	}
}

// noLLM is the chain generator of the real backends below: the test never
// chats, so it is never called — and an engine given a Client trains nothing.
type noLLM struct{}

func (noLLM) Generate(context.Context, llm.Request) (chain.Chain, error) {
	return nil, errors.New("cluster test: no chat expected")
}

// realBackends serves n real chatgraphd handlers over noLLM engines.
func realBackends(t *testing.T, n int) []*fakeBackend {
	t.Helper()
	backends := make([]*fakeBackend, n)
	for i := range backends {
		eng, err := core.NewEngine(core.Config{Client: noLLM{}})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(eng, server.Options{Metrics: metrics.NewRegistry()})
		t.Cleanup(srv.Close)
		backends[i] = &fakeBackend{ts: httptest.NewServer(srv.Handler())}
		t.Cleanup(backends[i].ts.Close)
	}
	return backends
}

// TestRouterMintedJobIDIsTheOneBound: a job body may already spell the key
// the router injects — empty, null, or in another case, all of which the
// router reads as "mint one". The backend's decoder lets the last duplicate
// win, so the minted id must be the one the backend binds: the 202 names a
// job that its rendezvous owner holds, and a poll through the router finds
// it. (Spliced in front, the body's own "" won, the backend minted a second
// id, and the poll followed the first to a coin-flip owner: 404.)
func TestRouterMintedJobIDIsTheOneBound(t *testing.T) {
	pool, rt := testRouter(t, realBackends(t, 2)...)
	for _, member := range []string{`"job_id":""`, `"Job_Id":""`, `"JOB_ID":null`, `"job_id":"", "job_id":null`} {
		// Eight submissions each: a misbound id still hashes onto the
		// right backend half the time.
		for i := 0; i < 8; i++ {
			body := fmt.Sprintf(`{"question":"Summarize the statistics of the graph", %s }`, member)
			resp, err := http.Post(rt.URL+"/v1/jobs", "application/json", jsonRaw([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			var created struct {
				JobID string `json:"job_id"`
			}
			json.NewDecoder(resp.Body).Decode(&created) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || created.JobID == "" {
				t.Fatalf("%s: submit = %d, id %q", member, resp.StatusCode, created.JobID)
			}
			if owner := pool.Owner(created.JobID).Name; owner != resp.Header.Get("X-Backend") {
				t.Fatalf("%s: job %s was accepted by %s but its id is owned by %s", member, created.JobID, resp.Header.Get("X-Backend"), owner)
			}
			poll, err := http.Get(rt.URL + "/v1/jobs/" + created.JobID)
			if err != nil {
				t.Fatal(err)
			}
			poll.Body.Close()
			if poll.StatusCode != http.StatusOK {
				t.Fatalf("%s: GET /v1/jobs/%s through the router = %d, want 200: an accepted job is lost", member, created.JobID, poll.StatusCode)
			}
		}
	}
}

// TestRouterRemovedChatRouteIs404 sends the removed single-conversation
// POST /chat through a router fronting real chatgraphd handlers: the router
// has no special case for it any more, so it is spread like any unknown path
// and the client sees the backend's own 404 (with X-Backend naming who said
// so) — not a router-made answer, and not a content-hash placement.
func TestRouterRemovedChatRouteIs404(t *testing.T) {
	_, rt := testRouter(t, realBackends(t, 2)...)

	body := []byte(`{"question":"Summarize the statistics of the graph","graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1}]}}`)
	served := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp, err := http.Post(rt.URL+"/chat", "application/json", jsonRaw(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST /chat through the router = %d, want the backend's 404", resp.StatusCode)
		}
		// The router sets X-Request-ID on its own answers too, so only a
		// backend's evidence counts: an X-Backend, and the Go mux's plain
		// text 404 body, which the router's catch-all never writes.
		if resp.Header.Get("X-Backend") == "" || string(data) != "404 page not found\n" {
			t.Fatalf("404 did not come from a chatgraphd backend: X-Backend %q, body %q", resp.Header.Get("X-Backend"), data)
		}
		// The backend echoes the router's id: the client gets it once.
		if ids := resp.Header.Values("X-Request-ID"); len(ids) != 1 {
			t.Fatalf("404 carries X-Request-ID %q, want exactly one", ids)
		}
		served[resp.Header.Get("X-Backend")] = true
	}
	// Identical uploads used to pin to one shard by content hash; as an
	// unknown path they rotate over the pool.
	if len(served) != 2 || served[""] {
		t.Fatalf("POST /chat was answered by %v, want both backends in rotation", served)
	}
}

// TestRouterReadyz follows the pool: ready with one backend up, 503 when
// the pool is dark.
func TestRouterReadyz(t *testing.T) {
	f1 := newFakeBackend(t)
	pool, rt := testRouter(t, f1)

	resp, err := http.Get(rt.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with pool up = %d", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		pool.Backends()[0].MarkFailure()
	}
	resp, err = http.Get(rt.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with pool dark = %d, want 503", resp.StatusCode)
	}
}

// TestInjectField pins the byte-splice used to pin job ids into bodies the
// router must not re-encode.
func TestInjectField(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{}`, `{"job_id":"k"}`},
		{`{"a":1}`, `{"a":1,"job_id":"k"}`},
		{`  {"a":1} `, `  {"a":1,"job_id":"k"} `},
		{`{ }`, `{"job_id":"k"}`},
		{`{"a":{}}`, `{"a":{},"job_id":"k"}`},
		{`{"a":"{"}`, `{"a":"{","job_id":"k"}`},
		{`{"job_id":"", "a":1 }`, `{"job_id":"", "a":1,"job_id":"k"}`},
		{`null`, `null`},
		{`not json`, `not json`},
	}
	for _, tc := range cases {
		got := string(injectField([]byte(tc.in), "job_id", "k"))
		if got != tc.want {
			t.Errorf("injectField(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if tc.in == `not json` {
			continue
		}
		// What the backend binds: the last duplicate wins.
		var req struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal([]byte(got), &req); err != nil {
			t.Errorf("injectField(%q) produced invalid JSON %q: %v", tc.in, got, err)
		} else if tc.in != `null` && req.JobID != "k" {
			t.Errorf("injectField(%q) = %q binds job_id %q, want the injected one", tc.in, got, req.JobID)
		}
	}
}

// TestRouterMintsRequestID checks the router names every request it
// handles: a request without X-Request-ID gets a 16-hex-digit id that the
// serving backend saw and the client gets back; every leg of a fan-out
// carries the same one; the router's own 503 and 413 carry one; and a
// client-sent id passes through unchanged.
func TestRouterMintsRequestID(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	pool, rt := testRouter(t, f1, f2)
	fakes := map[string]*fakeBackend{f1.name(): f1, f2.name(): f2}
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString
	do := func(method, url, id string, body io.Reader) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp := do(http.MethodGet, rt.URL+"/apis", "", nil)
		id := resp.Header.Values("X-Request-ID")
		if len(id) != 1 || !hex16(id[0]) {
			t.Fatalf("proxied GET carries X-Request-ID %q, want one 16-hex-digit id", id)
		}
		if got := fakes[resp.Header.Get("X-Backend")].lastID(); got != id[0] {
			t.Fatalf("backend saw id %q, client got %q", got, id[0])
		}
		seen[id[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 requests got %d distinct ids", len(seen))
	}

	resp := do(http.MethodGet, rt.URL+"/v1/sessions", "", nil)
	if id := resp.Header.Get("X-Request-ID"); !hex16(id) || f1.lastID() != id || f2.lastID() != id {
		t.Fatalf("fan-out answered id %q; legs saw %q and %q", id, f1.lastID(), f2.lastID())
	}

	resp = do(http.MethodGet, rt.URL+"/apis", "client-chosen-id", nil)
	if got := resp.Header.Values("X-Request-ID"); len(got) != 1 || got[0] != "client-chosen-id" {
		t.Fatalf("client-sent id came back as %q", got)
	}
	if got := fakes[resp.Header.Get("X-Backend")].lastID(); got != "client-chosen-id" {
		t.Fatalf("backend saw %q for a client-sent id", got)
	}

	small := httptest.NewServer(NewRouter(pool, Options{MaxBody: 16, Registry: metrics.NewRegistry()}).Handler())
	defer small.Close()
	resp = do(http.MethodPost, small.URL+"/v1/retrieve", "", jsonRaw(bytes.Repeat([]byte(" "), 64)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !hex16(resp.Header.Get("X-Request-ID")) {
		t.Fatalf("oversized body = %d with id %q, want 413 with an id", resp.StatusCode, resp.Header.Get("X-Request-ID"))
	}

	for _, b := range pool.Backends() {
		for i := 0; i < 3; i++ {
			b.MarkFailure()
		}
	}
	resp = do(http.MethodPost, rt.URL+"/v1/sessions", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !hex16(resp.Header.Get("X-Request-ID")) {
		t.Fatalf("all backends down = %d with id %q, want 503 with an id", resp.StatusCode, resp.Header.Get("X-Request-ID"))
	}
}
