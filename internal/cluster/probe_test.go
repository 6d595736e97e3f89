package cluster

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"chatgraph/internal/metrics"
)

// TestProberStopLeaksNoGoroutines: a started prober that has probed a live
// backend a few times stops, and once the backend is gone the goroutine
// count is back to what it was before either existed.
func TestProberStopLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var hits atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	pool, err := NewPool([]string{backend.URL}, Policy{}, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProber(pool, 5*time.Millisecond, time.Second)
	p.Start()
	for deadline := time.Now().Add(5 * time.Second); hits.Load() < 6; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the prober made %d probes in 5 s", hits.Load())
		}
	}
	stopped := make(chan struct{})
	go func() { p.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	backend.Close() // also closes the probe client's idle connections
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Stop = %d, want %d: the probe loop leaked", runtime.NumGoroutine(), base)
		}
	}
}

// TestProberAsksOneQuestion: a probe round sends each backend exactly one
// request, GET /readyz, and only a 200 there makes a backend routable — a
// backend that is alive (/healthz 200) but answers /readyz 404 stays down.
func TestProberAsksOneQuestion(t *testing.T) {
	fake := func(readyz int) (*httptest.Server, *atomic.Int32) {
		var hits atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			switch r.URL.Path {
			case "/healthz":
			case "/readyz":
				w.WriteHeader(readyz)
			default:
				http.NotFound(w, r)
			}
		}))
		t.Cleanup(srv.Close)
		return srv, &hits
	}
	ready, readyHits := fake(http.StatusOK)
	noReadyz, noReadyzHits := fake(http.StatusNotFound)
	pool, err := NewPool([]string{ready.URL, noReadyz.URL}, Policy{}, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProber(pool, time.Hour, time.Second)
	for round := int32(1); round <= 3; round++ {
		p.ProbeOnce()
		if got := readyHits.Load(); got != round {
			t.Fatalf("after %d rounds the ready backend got %d requests, want one per round", round, got)
		}
	}
	if got := noReadyzHits.Load(); got != 1 {
		t.Fatalf("the 404 backend got %d requests in its one recovery probe, want 1", got)
	}
	if b := pool.Backends(); !b[0].Routable() || b[1].Routable() {
		t.Fatalf("routable: ready=%v, readyz-404=%v; want true, false", b[0].Routable(), b[1].Routable())
	}
}
