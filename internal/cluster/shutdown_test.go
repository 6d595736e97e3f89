package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"chatgraph/internal/metrics"
)

// TestRouterShutdownDrainsStreams: SIGTERM's path through chatgraph-router
// (http.Server.Shutdown, then Prober.Stop, then CloseIdleConnections) lets
// a proxied NDJSON stream that is in flight finish, returns inside its
// deadline, and leaves no goroutine behind — while the backend stays up,
// so the router must close its own idle backend connections.
func TestRouterShutdownDrainsStreams(t *testing.T) {
	const lines = 6
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < lines; i++ {
			if i > 0 {
				time.Sleep(30 * time.Millisecond)
			}
			typ := "step_done"
			if i == lines-1 {
				typ = "result"
			}
			fmt.Fprintf(w, "{\"type\":%q,\"n\":%d}\n", typ, i)
			w.(http.Flusher).Flush()
		}
	}))
	defer backend.Close()
	base := runtime.NumGoroutine()

	pool, err := NewPool([]string{backend.URL}, Policy{}, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	prober := NewProber(pool, 5*time.Millisecond, time.Second)
	prober.Start()
	for deadline := time.Now().Add(5 * time.Second); pool.UpCount() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the backend never came up")
		}
	}
	router := NewRouter(pool, Options{Registry: metrics.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: router.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Post("http://"+ln.Addr().String()+"/v1/sessions/s1/chat?stream=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	got := make(chan []string, 1)
	go func() {
		defer resp.Body.Close()
		var seen []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if seen = append(seen, sc.Text()); len(seen) == 1 {
				close(first)
			}
		}
		got <- seen
	}()
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("no stream line arrived")
	}

	const drain = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a stream in flight: %v after %s", err, time.Since(start))
	}
	if took := time.Since(start); took >= drain {
		t.Fatalf("Shutdown took %s, the deadline is %s", took, drain)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	seen := <-got
	if want := fmt.Sprintf(`{"type":"result","n":%d}`, lines-1); len(seen) != lines || seen[lines-1] != want {
		t.Fatalf("the client read %q, want %d lines ending %s", seen, lines, want)
	}

	prober.Stop()
	router.CloseIdleConnections()
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines after shutdown = %d, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
