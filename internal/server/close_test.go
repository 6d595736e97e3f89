package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"chatgraph/internal/jobs"
	"chatgraph/internal/metrics"
)

// TestCloseLeaksNoGoroutines: Server.Close with a running job, a queued
// one, and a running job whose progress a client is tailing (?stream=1)
// cancels all three and ends the stream, and once the HTTP server and the
// client are closed the goroutine count is back to what it was before the
// server was built: the session/job sweeper New starts has stopped too.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	eng := slowEngine(t, time.Minute)
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()
	reg := metrics.NewRegistry()
	srv := newServer(t, eng, Options{JobWorkers: 2, Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	if runtime.NumGoroutine() < base+3 {
		t.Fatalf("goroutines after New = %d, want at least %d: two workers and the sweeper", runtime.NumGoroutine(), base+3)
	}

	submit := func() string {
		body, err := json.Marshal(JobRequest{Question: "Summarize the statistics of the graph", Graph: socialGraphJSON(t, 7)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
		}
		return info.JobID
	}
	state := func(id string) jobs.State {
		j, ok := srv.jobs.Get(id)
		if !ok {
			t.Fatalf("job %s is gone", id)
		}
		return j.Status().State
	}
	running, streamed := submit(), submit()
	for _, id := range []string{running, streamed} {
		for deadline := time.Now().Add(5 * time.Second); state(id) != jobs.StateRunning; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never started", id)
			}
		}
	}
	queued := submit()

	tail := make(chan string, 1)
	go func() {
		resp, err := client.Get(ts.URL + "/v1/jobs/" + streamed + "?stream=1")
		if err != nil {
			tail <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			tail <- err.Error()
			return
		}
		tail <- string(b)
	}()
	inFlight := reg.Gauge("chatgraph_http_in_flight", "", nil)
	for deadline := time.Now().Add(5 * time.Second); inFlight.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stream request never reached the handler")
		}
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	select {
	case got := <-tail:
		if !strings.Contains(got, `"type":"error"`) || !strings.Contains(got, "context canceled") {
			t.Fatalf("the tailed job's stream ended with %q, want its cancellation", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stream of a job cancelled by Close did not end")
	}
	for _, id := range []string{running, streamed, queued} {
		if st := state(id); st != jobs.StateCancelled {
			t.Fatalf("job %s is %s after Close, want cancelled", id, st)
		}
	}

	ts.Close()
	client.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close = %d, want %d: a worker or a stream leaked", runtime.NumGoroutine(), base)
		}
	}
}

// TestSweeperExpiresIdleSessions: with no traffic at all, the sweeper New
// starts expires an idle session once its TTL has passed (expiry is
// otherwise lazy, on access), and Close stops it.
func TestSweeperExpiresIdleSessions(t *testing.T) {
	testServer(t) // ensure the shared engine exists
	srv := newServer(t, srvEngine, Options{SessionTTL: 40 * time.Millisecond, Metrics: metrics.NewRegistry()})
	if _, err := srv.mgr.CreateWithID("", ""); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.mgr.Len() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an idle session outlived its 40ms TTL by 5s: %d live, none swept", srv.mgr.Len())
		}
	}
	if n := srv.mgr.expired.Load(); n != 1 {
		t.Fatalf("expired tally = %d, want 1", n)
	}
}
