package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"chatgraph/internal/metrics"
)

// TestClassifyRoute pins the affinity contract to the actual route table:
// the cluster router dispatches on exactly these classifications, so a new
// route that lands in the wrong class silently breaks session stickiness.
func TestClassifyRoute(t *testing.T) {
	cases := []struct {
		method, path string
		class        AffinityClass
		key          string
		idempotent   bool
	}{
		{http.MethodPost, "/v1/sessions", AffinitySession, "", false},
		{http.MethodGet, "/v1/sessions", AffinityFanout, "", true},
		{http.MethodDelete, "/v1/sessions/abc123", AffinitySession, "abc123", true},
		{http.MethodPost, "/v1/sessions/abc123/chat", AffinitySession, "abc123", false},
		{http.MethodGet, "/v1/sessions/abc123/history", AffinitySession, "abc123", true},
		{http.MethodPost, "/v1/jobs", AffinityJob, "", false},
		{http.MethodGet, "/v1/jobs", AffinityFanout, "", true},
		{http.MethodGet, "/v1/jobs/j1", AffinityJob, "j1", true},
		{http.MethodDelete, "/v1/jobs/j1", AffinityJob, "j1", true},
		{http.MethodPost, "/v1/retrieve", AffinityNone, "", true},
		{http.MethodGet, "/apis", AffinityNone, "", true},
		{http.MethodGet, "/suggest", AffinityNone, "", true},
		{http.MethodGet, "/config", AffinityNone, "", true},
		{http.MethodGet, "/healthz", AffinityNone, "", true},
		{http.MethodGet, "/readyz", AffinityNone, "", true},
		// Unknown routes must classify as non-idempotent AffinityNone: the
		// router forwards them somewhere but never replays them. The removed
		// single-conversation POST /chat is now one of them.
		{http.MethodPost, "/no/such/route", AffinityNone, "", false},
		{http.MethodPost, "/chat", AffinityNone, "", false},
	}
	for _, tc := range cases {
		aff := ClassifyRoute(tc.method, tc.path)
		if aff.Class != tc.class || aff.Key != tc.key || aff.Idempotent != tc.idempotent {
			t.Errorf("ClassifyRoute(%s %s) = {%s key=%q idem=%v}, want {%s key=%q idem=%v}",
				tc.method, tc.path, aff.Class, aff.Key, aff.Idempotent, tc.class, tc.key, tc.idempotent)
		}
	}
}

// TestRouteTableClassified walks every pattern Handler registers and
// requires ClassifyRoute to know it: a route added to the server without a
// routing contract would otherwise reach the cluster router as "unknown" —
// spread to any backend and never retried — which silently breaks a route
// that carries a session or job id.
func TestRouteTableClassified(t *testing.T) {
	srv := newServer(t, slowEngine(t, 0), Options{Metrics: metrics.NewRegistry()})
	for _, rt := range srv.routes() {
		// A pattern is "[METHOD ]/path"; the bare ones answer GET.
		method, path, ok := strings.Cut(rt.pattern, " ")
		if !ok {
			method, path = http.MethodGet, rt.pattern
		}
		path = strings.ReplaceAll(path, "{id}", "abc123")
		aff := ClassifyRoute(method, path)
		if aff == (RouteAffinity{}) {
			t.Errorf("route %q (%s) is unknown to ClassifyRoute", rt.pattern, rt.name)
		}
		if strings.Contains(rt.pattern, "{id}") && aff.Key != "abc123" {
			t.Errorf("route %q: ClassifyRoute extracted key %q, want the path id", rt.pattern, aff.Key)
		}
	}
}

// TestPinnedSessionID exercises the caller-pinned id path the cluster
// router depends on: accept a valid pin, 409 a duplicate, 400 a bad id.
func TestPinnedSessionID(t *testing.T) {
	base := testServer(t).URL
	post := func(body string) (*http.Response, SessionInfo) {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info SessionInfo
		json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck
		return resp, info
	}

	// A fresh pin per run: testServer is shared by the package, so a fixed
	// one would already be taken on a second run (-count=2).
	pin := RandomHex(6)
	resp, info := post(`{"session_id":"` + pin + `"}`)
	if resp.StatusCode != http.StatusCreated || info.SessionID != pin {
		t.Fatalf("pinned create: status=%d id=%q", resp.StatusCode, info.SessionID)
	}
	if resp, _ := post(`{"session_id":"` + pin + `"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate pin status = %d, want 409", resp.StatusCode)
	}
	for _, bad := range []string{"short", "UPPERHEX99", "has-dash-00", "zz00zz00zz"} {
		if resp, _ := post(`{"session_id":"` + bad + `"}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad pin %q status = %d, want 400", bad, resp.StatusCode)
		}
	}
	// The pinned session is a real session: history answers on it.
	hr, err := http.Get(base + "/v1/sessions/" + pin + "/history")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("history on pinned session = %d", hr.StatusCode)
	}
}

// TestPinnedJobID mirrors TestPinnedSessionID for the jobs surface.
func TestPinnedJobID(t *testing.T) {
	base := testServer(t).URL
	submit := func(req JobRequest) (*http.Response, JobInfo) {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info JobInfo
		json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck
		return resp, info
	}

	pin := RandomHex(6) // fresh per run, as in TestPinnedSessionID
	resp, info := submit(JobRequest{Question: "Summarize the statistics of the graph", JobID: pin})
	if resp.StatusCode != http.StatusAccepted || info.JobID != pin {
		t.Fatalf("pinned submit: status=%d id=%q", resp.StatusCode, info.JobID)
	}
	if resp, _ := submit(JobRequest{Question: "q", JobID: pin}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate pin status = %d, want 409", resp.StatusCode)
	}
	if resp, _ := submit(JobRequest{Question: "q", JobID: "NOT-HEX"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pin status = %d, want 400", resp.StatusCode)
	}
	// The pinned job is pollable under its pinned identity.
	gr, err := http.Get(base + "/v1/jobs/" + pin)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("poll pinned job = %d", gr.StatusCode)
	}
}
