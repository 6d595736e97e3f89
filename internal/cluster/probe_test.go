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
