package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chatgraph/internal/tenant"
)

// doReq issues one request with an optional API key, returning the response
// with its body drained and closed (headers and status remain readable).
func doReq(t *testing.T, method, url, key string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set(APIKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp
}

// mustRegistry builds a tenant registry or fails the test.
func mustRegistry(t *testing.T, cfg *tenant.Config) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestLegacyChatRateLimited guards the rate-limit bypass the single-
// conversation endpoint once was: POST /chat used to reach a shared
// conversation without passing the session token bucket, so a client that
// never upgraded to /v1 could sidestep -session-rate. The bypass is now
// closed the simple way — the endpoint is gone: POST /chat is 404, is never
// shed, and spends no token anywhere, so the one remaining chat road still
// admits exactly its burst afterwards.
func TestLegacyChatRateLimited(t *testing.T) {
	eng := slowEngine(t, 0)
	srv, ts := newAdmissionServer(t, eng, Options{
		SessionRate:  0.5, // refill far slower than the test runs
		SessionBurst: 2,
	})
	body := chatBody(t)

	for i := 0; i < 6; i++ {
		if resp := doReq(t, http.MethodPost, ts.URL+"/chat", "", body); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST /chat #%d = %d, want 404", i, resp.StatusCode)
		}
	}
	if got := srv.hm.shedRate.Value(); got != 0 {
		t.Fatalf("POST /chat was shed %d times; it must not reach a limiter at all", got)
	}

	info := mustCreateSession(t, ts)
	var ok2xx, shed int
	for i := 0; i < 6; i++ {
		resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/"+info.SessionID+"/chat", "", body)
		switch resp.StatusCode {
		case http.StatusOK:
			ok2xx++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if ok2xx != 2 || shed != 4 {
		t.Fatalf("burst=2 over 6 chats after the /chat probes: ok=%d shed=%d", ok2xx, shed)
	}
	if got := srv.hm.shedRate.Value(); got != uint64(shed) {
		t.Fatalf("session_rate shed metric = %d, observed %d", got, shed)
	}
}

// TestRetryAfterRounding pins the Retry-After contract across all three
// bucket layers — per-session, per-tenant, and global -max-rps: every shed
// path must answer with the same correctly-rounded integer seconds
// (ceil of the refill wait, minimum 1). At 0.25 tokens/sec with burst 1 the
// wait after a drain is just under 4s, so all three layers must say "4".
func TestRetryAfterRounding(t *testing.T) {
	retrieveBody := []byte(`{"queries":["communities"],"k":3}`)
	cases := []struct {
		name string
		opts Options
		key  string
	}{
		{
			name: "session_bucket",
			opts: Options{SessionRate: 0.25, SessionBurst: 1},
		},
		{
			name: "tenant_bucket",
			opts: Options{}, // registry injected below
			key:  "k-metered",
		},
		{
			name: "global_max_rps",
			opts: Options{MaxRPS: 0.25},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			if tc.name == "tenant_bucket" {
				opts.Tenants = mustRegistry(t, &tenant.Config{
					Tenants: []tenant.TenantConfig{{
						Name:  "metered",
						Keys:  []string{"k-metered"},
						Quota: tenant.Quota{RPS: 0.25, Burst: 1},
					}},
				})
			}
			eng := slowEngine(t, 0)
			_, ts := newAdmissionServer(t, eng, opts)

			var shedResp *http.Response
			if tc.name == "session_bucket" {
				info := mustCreateSession(t, ts)
				url := ts.URL + "/v1/sessions/" + info.SessionID + "/chat"
				if resp := doReq(t, http.MethodPost, url, "", chatBody(t)); resp.StatusCode != http.StatusOK {
					t.Fatalf("first chat = %d", resp.StatusCode)
				}
				shedResp = doReq(t, http.MethodPost, url, "", chatBody(t))
			} else {
				url := ts.URL + "/v1/retrieve"
				if resp := doReq(t, http.MethodPost, url, tc.key, retrieveBody); resp.StatusCode != http.StatusOK {
					t.Fatalf("first retrieve = %d", resp.StatusCode)
				}
				shedResp = doReq(t, http.MethodPost, url, tc.key, retrieveBody)
			}
			if shedResp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("second request = %d, want 429", shedResp.StatusCode)
			}
			ra := shedResp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil {
				t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
			}
			if secs != 4 {
				t.Fatalf("Retry-After = %d, want 4 (ceil of the 0.25 rps refill wait)", secs)
			}
		})
	}
}

// TestAuthSemantics pins the API-key contract: no key rides as anonymous
// when anonymous is enabled, an unknown key is 401 (never silently
// downgraded to anonymous), a disabled tenant's key is 403, and with
// anonymous disabled a keyless request is 401.
func TestAuthSemantics(t *testing.T) {
	eng := slowEngine(t, 0)
	reg := mustRegistry(t, &tenant.Config{
		Tenants: []tenant.TenantConfig{
			{Name: "acme", Keys: []string{"k-acme"}},
			{Name: "mothballed", Keys: []string{"k-mothballed"}, Disabled: true},
		},
	})
	srv, ts := newAdmissionServer(t, eng, Options{Tenants: reg})

	if resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions", "", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("anonymous create = %d, want 201", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions", "k-acme", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("keyed create = %d, want 201", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions", "k-bogus", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key = %d, want 401", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions", "k-mothballed", nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled tenant = %d, want 403", resp.StatusCode)
	}
	var b strings.Builder
	srv.hm.reg.WritePrometheus(&b)
	for _, want := range []string{
		`chatgraph_auth_failures_total{reason="unknown_key"} 1`,
		`chatgraph_auth_failures_total{reason="disabled"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}

	// Anonymous disabled: a keyless request is rejected up front.
	lockedReg := mustRegistry(t, &tenant.Config{
		Tenants:   []tenant.TenantConfig{{Name: "acme", Keys: []string{"k-acme"}}},
		Anonymous: &tenant.AnonymousConfig{Disabled: true},
	})
	srv2, ts2 := newAdmissionServer(t, slowEngine(t, 0), Options{Tenants: lockedReg})
	if resp := doReq(t, http.MethodPost, ts2.URL+"/v1/sessions", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless with anonymous disabled = %d, want 401", resp.StatusCode)
	}
	b.Reset()
	srv2.hm.reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `chatgraph_auth_failures_total{reason="key_required"} 1`) {
		t.Fatalf("exposition missing key_required counter:\n%s", b.String())
	}
}

// TestCrossTenantOwnership proves sessions and jobs are invisible across
// tenant boundaries: another tenant's (or anonymous's) access to a resource
// is indistinguishable from the resource not existing — 404, absent from
// lists — so IDs cannot be probed, while the owner retains full access.
func TestCrossTenantOwnership(t *testing.T) {
	eng := slowEngine(t, 0)
	reg := mustRegistry(t, &tenant.Config{
		Tenants: []tenant.TenantConfig{
			{Name: "alpha", Keys: []string{"ka"}},
			{Name: "beta", Keys: []string{"kb"}},
		},
	})
	_, ts := newAdmissionServer(t, eng, Options{Tenants: reg})

	// Sessions.
	resp := doReqJSON(t, http.MethodPost, ts.URL+"/v1/sessions", "ka", nil)
	if resp.status != http.StatusCreated {
		t.Fatalf("alpha create = %d", resp.status)
	}
	sid := resp.body["session_id"].(string)
	for _, probe := range []struct{ key, who string }{{"kb", "beta"}, {"", "anonymous"}} {
		if r := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/history", probe.key, nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s reading alpha's history = %d, want 404", probe.who, r.StatusCode)
		}
		if r := doReq(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sid, probe.key, nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s deleting alpha's session = %d, want 404", probe.who, r.StatusCode)
		}
		if r := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/chat", probe.key, chatBody(t)); r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s chatting on alpha's session = %d, want 404", probe.who, r.StatusCode)
		}
	}
	if ids := listSessionIDs(t, ts, "kb"); len(ids) != 0 {
		t.Fatalf("beta's session list leaks: %v", ids)
	}
	if ids := listSessionIDs(t, ts, "ka"); len(ids) != 1 || ids[0] != sid {
		t.Fatalf("alpha's session list = %v, want [%s]", ids, sid)
	}
	if r := doReq(t, http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/history", "ka", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("owner reading own history = %d", r.StatusCode)
	}

	// Jobs.
	resp = doReqJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "ka", chatBody(t))
	if resp.status != http.StatusAccepted {
		t.Fatalf("alpha job submit = %d", resp.status)
	}
	jid := resp.body["job_id"].(string)
	for _, probe := range []struct{ key, who string }{{"kb", "beta"}, {"", "anonymous"}} {
		if r := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+jid, probe.key, nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s reading alpha's job = %d, want 404", probe.who, r.StatusCode)
		}
		if r := doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jid, probe.key, nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s cancelling alpha's job = %d, want 404", probe.who, r.StatusCode)
		}
	}
	if r := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+jid, "ka", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("owner reading own job = %d", r.StatusCode)
	}
	jl := doReqJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "kb", nil)
	if jobsArr, ok := jl.body["jobs"].([]any); !ok || len(jobsArr) != 0 {
		t.Fatalf("beta's job list leaks: %v", jl.body["jobs"])
	}

	// A probe that is answered 404 must not have touched the session either:
	// beta hammering alpha's short-lived session id for longer than the TTL
	// must not keep it alive past the TTL.
	const ttl = 300 * time.Millisecond
	_, short := newAdmissionServer(t, eng, Options{
		SessionTTL: ttl,
		Tenants: mustRegistry(t, &tenant.Config{Tenants: []tenant.TenantConfig{
			{Name: "alpha", Keys: []string{"ka"}},
			{Name: "beta", Keys: []string{"kb"}},
		}}),
	})
	created := time.Now()
	resp = doReqJSON(t, http.MethodPost, short.URL+"/v1/sessions", "ka", nil)
	if resp.status != http.StatusCreated {
		t.Fatalf("alpha short-ttl create = %d", resp.status)
	}
	victim := short.URL + "/v1/sessions/" + resp.body["session_id"].(string) + "/history"
	for time.Since(created) < ttl+100*time.Millisecond {
		if r := doReq(t, http.MethodGet, victim, "kb", nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("beta probing alpha's session = %d, want 404", r.StatusCode)
		}
		time.Sleep(ttl / 10)
	}
	if r := doReq(t, http.MethodGet, victim, "ka", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("alpha's session outlived its %v TTL under foreign probes: owner read = %d, want 404", ttl, r.StatusCode)
	}
}

// TestTenantMetricsBounded proves per-tenant label cardinality is bounded by
// configuration: every configured tenant plus anonymous gets a series, and
// traffic with unknown keys mints nothing — an attacker spraying random keys
// cannot grow the exposition.
func TestTenantMetricsBounded(t *testing.T) {
	eng := slowEngine(t, 0)
	reg := mustRegistry(t, &tenant.Config{
		Tenants: []tenant.TenantConfig{{Name: "acme", Keys: []string{"k-acme"}}},
	})
	srv, ts := newAdmissionServer(t, eng, Options{Tenants: reg})

	doReq(t, http.MethodPost, ts.URL+"/v1/sessions", "k-acme", nil)
	doReq(t, http.MethodPost, ts.URL+"/v1/sessions", "", nil)
	for i := 0; i < 5; i++ {
		sprayed := "sprayed-key-" + strconv.Itoa(i)
		if r := doReq(t, http.MethodPost, ts.URL+"/v1/sessions", sprayed, nil); r.StatusCode != http.StatusUnauthorized {
			t.Fatalf("sprayed key %d = %d, want 401", i, r.StatusCode)
		}
	}
	var b strings.Builder
	srv.hm.reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`chatgraph_tenant_requests_total{tenant="acme"} 1`,
		`chatgraph_tenant_requests_total{tenant="anonymous"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sprayed") {
		t.Fatalf("unknown keys minted tenant series:\n%s", out)
	}
	// Exactly the configured names + anonymous appear under the tenant label.
	labels := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, `tenant="`); i >= 0 && !strings.HasPrefix(line, "#") {
			rest := line[i+len(`tenant="`):]
			labels[rest[:strings.Index(rest, `"`)]] = true
		}
	}
	if len(labels) != 2 || !labels["acme"] || !labels["anonymous"] {
		t.Fatalf("tenant label values = %v, want exactly {acme, anonymous}", labels)
	}
}

// TestNoisyNeighborIsolation is the fairness acceptance test: a hostile
// tenant flooding at far beyond its share must not raise a compliant
// tenant's error rate above zero, shed a single compliant request, or blow
// its p99 past a sane bound. With anonymous disabled, capacity 8 at weights
// 3:1 partitions into guaranteed shares of exactly 6 and 2 (no slack). The
// compliant tenant keeps at most 4 chats in flight — safely under its share
// — while the hostile tenant runs 16 concurrent workers against a share of
// 2. Chats (not retrieves) carry the flood because a chat holds its
// admission slot for the engine's full service time, which is what builds
// real occupancy pressure on the gate.
func TestNoisyNeighborIsolation(t *testing.T) {
	eng := slowEngine(t, 10*time.Millisecond)
	reg := mustRegistry(t, &tenant.Config{
		Tenants: []tenant.TenantConfig{
			{Name: "compliant", Keys: []string{"ck"}, Weight: 3},
			{Name: "hostile", Keys: []string{"hk"}, Weight: 1},
		},
		Anonymous: &tenant.AnonymousConfig{Disabled: true},
	})
	_, ts := newAdmissionServer(t, eng, Options{Tenants: reg, MaxInFlight: 8})

	createSession := func(key string) string {
		resp := doReqJSON(t, http.MethodPost, ts.URL+"/v1/sessions", key, nil)
		if resp.status != http.StatusCreated {
			t.Fatalf("create session for %s = %d", key, resp.status)
		}
		return resp.body["session_id"].(string)
	}
	body := chatBody(t)

	// All 16 hostile workers hammer one session: admitted chats serialize on
	// the session lock while still occupying their admission slots, so the
	// hostile tenant's in-flight count is pinned at its ceiling throughout.
	hostileSession := createSession("hk")
	stop := make(chan struct{})
	var hostileShed, hostileSent atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/"+hostileSession+"/chat", "hk", body)
				hostileSent.Add(1)
				if resp.StatusCode == http.StatusTooManyRequests {
					hostileShed.Add(1)
				}
			}
		}()
	}

	var latMu sync.Mutex
	var compliantLat []time.Duration
	var compliantShed, compliantErr atomic.Int64
	deadline := time.Now().Add(700 * time.Millisecond)
	var cwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sid := createSession("ck")
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				resp := doReq(t, http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/chat", "ck", body)
				elapsed := time.Since(start)
				switch {
				case resp.StatusCode == http.StatusOK:
					latMu.Lock()
					compliantLat = append(compliantLat, elapsed)
					latMu.Unlock()
				case resp.StatusCode == http.StatusTooManyRequests:
					compliantShed.Add(1)
				default:
					compliantErr.Add(1)
				}
			}
		}()
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	if compliantErr.Load() != 0 {
		t.Fatalf("compliant tenant saw %d errors under hostile flood", compliantErr.Load())
	}
	if compliantShed.Load() != 0 {
		t.Fatalf("compliant tenant below its guaranteed share was shed %d times", compliantShed.Load())
	}
	if len(compliantLat) == 0 {
		t.Fatal("compliant tenant completed no requests")
	}
	if hostileShed.Load() == 0 {
		t.Fatalf("hostile tenant was never shed (sent %d) — the flood produced no pressure, so the test proves nothing", hostileSent.Load())
	}
	sort.Slice(compliantLat, func(i, j int) bool { return compliantLat[i] < compliantLat[j] })
	p99 := compliantLat[(len(compliantLat)*99)/100]
	if p99 > 2*time.Second {
		t.Fatalf("compliant p99 = %v under hostile flood, want < 2s", p99)
	}
}

// jsonResp is a decoded response for the ownership assertions.
type jsonResp struct {
	status int
	body   map[string]any
}

func doReqJSON(t *testing.T, method, url, key string, body []byte) jsonResp {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set(APIKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := jsonResp{status: resp.StatusCode, body: map[string]any{}}
	json.NewDecoder(resp.Body).Decode(&out.body) //nolint:errcheck // error bodies may be empty
	return out
}

func listSessionIDs(t *testing.T, ts *httptest.Server, key string) []string {
	t.Helper()
	resp := doReqJSON(t, http.MethodGet, ts.URL+"/v1/sessions", key, nil)
	if resp.status != http.StatusOK {
		t.Fatalf("session list = %d", resp.status)
	}
	var ids []string
	if arr, ok := resp.body["sessions"].([]any); ok {
		for _, v := range arr {
			if m, ok := v.(map[string]any); ok {
				ids = append(ids, m["session_id"].(string))
			}
		}
	}
	return ids
}
