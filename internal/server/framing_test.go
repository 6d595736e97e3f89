package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"sync"
	"testing"
)

// writeJSONStream is the writer WriteJSON replaced, kept as the parity
// oracle: it streams the value straight into the response, so net/http
// frames any body past its 2 KiB buffer as chunked.
func writeJSONStream(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort once status is written
}

// framingCase is one reply the parity test writes both ways.
type framingCase struct {
	status int
	v      any
}

func framingCases() map[string]framingCase {
	results := make([][]RetrieveHit, 16)
	for q := range results {
		for i := 0; i < 5; i++ {
			results[q] = append(results[q], RetrieveHit{
				Name:        fmt.Sprintf("api.%d_%d", q, i),
				Description: "Rank <nodes> & edges of the graph by \"influence\" — with HTML to escape",
				Distance:    float32(q) + float32(i)/7,
			})
		}
	}
	return map[string]framingCase{
		"retrieve": {http.StatusOK, RetrieveResponse{Results: results}},
		"chat": {http.StatusOK, ChatResponse{
			Answer: "The graph has 3 communities.\nLargest: <12 nodes>", Chain: "graph.classify -> community.detect", Kind: "social",
			Events: []ChatEvent{{Type: "step_start", Step: "graph.classify"}, {Type: "step_done", Step: "graph.classify", Text: "social & small", ElapsedMS: 1}},
		}},
		"error":       {http.StatusUnprocessableEntity, errorBody{Error: "core: no chain for \"<q>\"", RequestID: "0123456789abcdef"}},
		"map":         {http.StatusOK, map[string]string{"status": "ok"}},
		"unencodable": {http.StatusOK, map[string]float64{"x": math.Inf(1)}},
	}
}

// get fetches url and reads the whole body; a failure panics, as it may
// happen off the test goroutine.
func get(c *http.Client, url string) (*http.Response, []byte) {
	resp, err := c.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(err)
	}
	return resp, body
}

// TestWriteJSONParity: every reply WriteJSON writes carries the status,
// headers and body bytes the streaming writer it replaced did, plus a
// Content-Length equal to the body's length and no chunked framing. The
// cases run from several goroutines at once, so -race sees the buffer pool
// shared.
func TestWriteJSONParity(t *testing.T) {
	cases := framingCases()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cases[r.URL.Query().Get("case")]
		if r.URL.Path == "/oracle" {
			writeJSONStream(w, c.status, c.v)
			return
		}
		WriteJSON(w, c.status, c.v)
	}))
	defer ts.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range cases {
				want, wantBody := get(ts.Client(), ts.URL+"/oracle?case="+name)
				got, gotBody := get(ts.Client(), ts.URL+"/framed?case="+name)
				if got.StatusCode != want.StatusCode || !bytes.Equal(gotBody, wantBody) {
					t.Errorf("%s: got %d %q, the oracle %d %q", name, got.StatusCode, gotBody, want.StatusCode, wantBody)
				}
				if n, err := strconv.Atoi(got.Header.Get("Content-Length")); err != nil || n != len(gotBody) {
					t.Errorf("%s: Content-Length %q for a %d-byte body", name, got.Header.Get("Content-Length"), len(gotBody))
				}
				if len(got.TransferEncoding) != 0 {
					t.Errorf("%s: Transfer-Encoding %v, want none", name, got.TransferEncoding)
				}
				for _, h := range []http.Header{got.Header, want.Header} {
					h.Del("Date")
					h.Del("Content-Length")
				}
				if fmt.Sprint(got.Header) != fmt.Sprint(want.Header) {
					t.Errorf("%s: headers %v, the oracle %v", name, got.Header, want.Header)
				}
			}
		}()
	}
	wg.Wait()
	if _, body := get(ts.Client(), ts.URL+"/framed?case=retrieve"); len(body) <= 2048 {
		t.Fatalf("the retrieve case is %d bytes: it no longer outgrows net/http's 2 KiB buffer", len(body))
	}
}

// TestKeepAliveSurvivesEarlyClose: a client that decodes one JSON value and
// closes the body without reading on (the bench's idiom) keeps one
// connection for a run of retrieval batches, an /apis listing and a 400.
// A chunked reply's terminator arrives after the value, so such a client
// used to drop the connection and dial again.
func TestKeepAliveSurvivesEarlyClose(t *testing.T) {
	ts := testServer(t)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	queries := make([]string, 16)
	for i := range queries {
		queries[i] = fmt.Sprintf("detect the communities of network %d and rank its nodes", i)
	}
	batch, err := json.Marshal(RetrieveRequest{Queries: queries, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		method, path string
		body         []byte
		status       int
	}
	var calls []call
	for i := 0; i < 100; i++ {
		calls = append(calls, call{http.MethodPost, "/v1/retrieve", batch, http.StatusOK})
	}
	calls = append(calls,
		call{http.MethodGet, "/apis", nil, http.StatusOK},
		call{http.MethodPost, "/v1/retrieve", []byte(`{"queries":`), http.StatusBadRequest},
		call{http.MethodPost, "/v1/retrieve", batch, http.StatusOK})
	for i, c := range calls {
		reused := false
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), c.method, ts.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.status {
			t.Fatalf("request %d (%s %s): status %d, decode %v; want %d", i, c.method, c.path, resp.StatusCode, err, c.status)
		}
		if i > 0 && !reused {
			t.Fatalf("request %d (%s %s, %d bytes) dialled a new connection", i, c.method, c.path, resp.ContentLength)
		}
	}
}
