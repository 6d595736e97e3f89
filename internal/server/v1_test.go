package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chatgraph/internal/graph"
)

func createSession(t *testing.T) SessionInfo {
	t.Helper()
	resp, err := http.Post(testServer(t).URL+"/v1/sessions", "application/json", nil)
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
	if info.SessionID == "" {
		t.Fatal("empty session_id")
	}
	return info
}

func socialGraphJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	g := graph.PlantedCommunities(2, 10, 0.5, 0.05, rand.New(rand.NewSource(seed)))
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postSessionChat(t *testing.T, id, query string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	url := testServer(t).URL + "/v1/sessions/" + id + "/chat" + query
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestV1SessionLifecycle drives the full create → chat → history → delete
// round trip, then confirms the deleted session 404s.
func TestV1SessionLifecycle(t *testing.T) {
	info := createSession(t)
	gj := socialGraphJSON(t, 3)

	for i := 0; i < 2; i++ {
		resp := postSessionChat(t, info.SessionID, "", ChatRequest{Question: "Write a brief report for G", Graph: gj})
		var cr ChatResponse
		err := json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("chat %d: status %d err %v", i, resp.StatusCode, err)
		}
		if cr.Answer == "" || cr.Kind != "social" || len(cr.Events) < 4 {
			t.Fatalf("chat %d response = %+v", i, cr)
		}
	}

	resp, err := http.Get(testServer(t).URL + "/v1/sessions/" + info.SessionID + "/history")
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		SessionID string        `json:"session_id"`
		Turns     []HistoryTurn `json:"turns"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hist)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hist.SessionID != info.SessionID || len(hist.Turns) != 2 {
		t.Fatalf("history = %+v", hist)
	}
	if hist.Turns[0].Answer == "" || hist.Turns[0].Chain == "" {
		t.Fatalf("turn = %+v", hist.Turns[0])
	}

	req, _ := http.NewRequest(http.MethodDelete, testServer(t).URL+"/v1/sessions/"+info.SessionID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}

	// Everything about the dead session is now a 404 with a request_id.
	resp = postSessionChat(t, info.SessionID, "", ChatRequest{Question: "hi"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("chat after delete status = %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error == "" || eb.RequestID == "" {
		t.Fatalf("error body = %+v", eb)
	}
	if got := resp.Header.Get("X-Request-ID"); got != eb.RequestID {
		t.Fatalf("header request id %q != body %q", got, eb.RequestID)
	}
}

// TestV1ChatStreaming exercises the NDJSON path: progress events arrive one
// per line, terminated by a result line carrying the answer.
func TestV1ChatStreaming(t *testing.T) {
	info := createSession(t)
	resp := postSessionChat(t, info.SessionID, "?stream=1", ChatRequest{Question: "Write a brief report for G", Graph: socialGraphJSON(t, 4)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var types []string
	var result struct {
		Type   string       `json:"type"`
		Result ChatResponse `json:"result"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		types = append(types, probe.Type)
		if probe.Type == "result" {
			if err := json.Unmarshal(line, &result); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) < 5 {
		t.Fatalf("stream lines = %v", types)
	}
	if types[0] != "chain_start" || types[len(types)-1] != "result" {
		t.Fatalf("stream order = %v", types)
	}
	if result.Result.Answer == "" || result.Result.Kind != "social" {
		t.Fatalf("result = %+v", result.Result)
	}
}

// TestV1SessionExpiry runs its own server with a tiny TTL: an idle session
// must 404 once its TTL elapses.
func TestV1SessionExpiry(t *testing.T) {
	testServer(t) // ensure the shared engine exists
	srv := newServer(t, srvEngine, Options{SessionTTL: 30 * time.Millisecond, MaxSessions: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck
	resp.Body.Close()

	time.Sleep(60 * time.Millisecond)
	hresp, err := http.Get(ts.URL + "/v1/sessions/" + info.SessionID + "/history")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session status = %d", hresp.StatusCode)
	}
	if srv.mgr.Len() != 0 {
		t.Fatalf("expired session still counted: %d", srv.mgr.Len())
	}
}

// TestV1MaxSessions fills the cap and expects 503 on the next create.
func TestV1MaxSessions(t *testing.T) {
	testServer(t)
	srv := newServer(t, srvEngine, Options{SessionTTL: time.Hour, MaxSessions: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d status = %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create status = %d", resp.StatusCode)
	}
}

// TestV1ConcurrentChat runs parallel conversations against the one shared
// engine — the race detector proves per-session locking suffices.
func TestV1ConcurrentChat(t *testing.T) {
	const nSessions = 3
	infos := make([]SessionInfo, nSessions)
	for i := range infos {
		infos[i] = createSession(t)
	}
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for i, info := range infos {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			gj := socialGraphJSON(t, int64(10+i))
			for j := 0; j < 2; j++ {
				data, _ := json.Marshal(ChatRequest{Question: "Write a brief report for G", Graph: gj})
				resp, err := http.Post(testServer(t).URL+"/v1/sessions/"+id+"/chat", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				var cr ChatResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || cr.Answer == "" {
					errs <- fmt.Errorf("session %d chat %d: status %d resp %+v", i, j, resp.StatusCode, cr)
					return
				}
			}
		}(i, info.SessionID)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		resp, err := http.Get(testServer(t).URL + "/v1/sessions/" + info.SessionID + "/history")
		if err != nil {
			t.Fatal(err)
		}
		var hist struct {
			Turns []HistoryTurn `json:"turns"`
		}
		json.NewDecoder(resp.Body).Decode(&hist) //nolint:errcheck
		resp.Body.Close()
		if len(hist.Turns) != 2 {
			t.Fatalf("session %s history = %d turns", info.SessionID, len(hist.Turns))
		}
	}
}

func TestV1ChatValidation(t *testing.T) {
	info := createSession(t)
	resp := postSessionChat(t, info.SessionID, "", ChatRequest{Question: ""})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty question status = %d", resp.StatusCode)
	}
	r, err := http.Post(testServer(t).URL+"/v1/sessions/"+info.SessionID+"/chat", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d", r.StatusCode)
	}
	// Unknown session id.
	resp = postSessionChat(t, "deadbeef", "", ChatRequest{Question: "hi"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", resp.StatusCode)
	}
}

// TestSuggestUnknownKind covers the 400-on-bad-kind contract (formerly a
// silent KindUnknown fallback) and the request_id correlation field.
func TestSuggestUnknownKind(t *testing.T) {
	resp, err := http.Get(testServer(t).URL + "/suggest?kind=starfish")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "starfish") || eb.RequestID == "" {
		t.Fatalf("error body = %+v", eb)
	}
}

func TestV1SessionList(t *testing.T) {
	info := createSession(t)
	resp, err := http.Get(testServer(t).URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range out.Sessions {
		if s.SessionID == info.SessionID {
			found = true
		}
	}
	if !found {
		t.Fatalf("created session %s missing from list of %d", info.SessionID, len(out.Sessions))
	}
}

func postRetrieve(t *testing.T, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(testServer(t).URL+"/v1/retrieve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestV1RetrieveBatch(t *testing.T) {
	resp := postRetrieve(t, `{"queries":["detect communities in the network","how toxic is this molecule"],"k":5}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out RetrieveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d lists", len(out.Results))
	}
	for i, hits := range out.Results {
		if len(hits) != 5 {
			t.Fatalf("query %d returned %d hits, want 5", i, len(hits))
		}
		for j, h := range hits {
			if h.Name == "" || h.Description == "" {
				t.Fatalf("query %d hit %d incomplete: %+v", i, j, h)
			}
			if j > 0 && h.Distance < hits[j-1].Distance {
				t.Fatalf("query %d hits not sorted: %+v", i, hits)
			}
		}
	}
	// The engine-side single-query ranking must agree with the wire reply.
	want := srvEngine.Retrieval().TopAPIs("detect communities in the network", 5)
	for j := range want {
		if out.Results[0][j].Name != want[j].Name {
			t.Fatalf("wire hit %d = %s, engine = %s", j, out.Results[0][j].Name, want[j].Name)
		}
	}
}

func TestV1RetrieveValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{nope`},
		{"no queries", `{"k":5}`},
		{"empty query string", `{"queries":["ok",""]}`},
		{"negative k", `{"queries":["ok"],"k":-1}`},
		{"huge k", `{"queries":["ok"],"k":101}`},
	}
	for _, c := range cases {
		resp := postRetrieve(t, c.body)
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decode error body: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
		if body.Error == "" || body.RequestID == "" {
			t.Fatalf("%s: error body incomplete: %+v", c.name, body)
		}
	}
	// Too many queries.
	qs := make([]string, maxRetrieveQueries+1)
	for i := range qs {
		qs[i] = "q"
	}
	data, err := json.Marshal(RetrieveRequest{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	resp := postRetrieve(t, string(data))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status = %d, want 400", resp.StatusCode)
	}
}
