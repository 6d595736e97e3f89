package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"chatgraph/internal/metrics"
)

// fault is what faultTransport does to a round trip that reached a backend.
type fault int

const (
	// faultNone passes the round trip through.
	faultNone fault = iota
	// faultReset lets the backend execute the request and read its whole
	// reply, then reports a connection reset: the router sees a failed
	// attempt although the backend has run it.
	faultReset
	// faultCut hands the response over with its headers, then fails the
	// body after its first byte: a connection that dies mid-stream.
	faultCut
)

func (f fault) String() string { return [...]string{"none", "reset", "cut"}[f] }

// errReset is the error a reset attempt returns.
var errReset = fmt.Errorf("read tcp: %w", syscall.ECONNRESET)

// faultTransport is the router's Options.Transport in the fault tests: a
// real transport whose round trips to chosen backends (by host:port) are
// faulted after the backend has seen them.
type faultTransport struct {
	next *http.Transport

	mu     sync.Mutex
	faults map[string]fault
}

func newFaultTransport() *faultTransport {
	return &faultTransport{next: http.DefaultTransport.(*http.Transport).Clone(), faults: map[string]fault{}}
}

func (ft *faultTransport) set(host string, f fault) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.faults[host] = f
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ft.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	ft.mu.Lock()
	f := ft.faults[req.URL.Host]
	ft.mu.Unlock()
	switch f {
	case faultReset:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return nil, errReset
	case faultCut:
		resp.Body = &cutBody{ReadCloser: resp.Body, left: 1}
	}
	return resp, nil
}

// CloseIdleConnections lets Router.CloseIdleConnections reach the real
// transport.
func (ft *faultTransport) CloseIdleConnections() { ft.next.CloseIdleConnections() }

// cutBody yields left bytes of the real body and then a reset.
type cutBody struct {
	io.ReadCloser
	left int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, errReset
	}
	n, err := c.ReadCloser.Read(p[:min(len(p), c.left)])
	c.left -= n
	return n, err
}

// faultRouter serves a router over fakes whose round trips pass through ft,
// with the fakes probed up under policy.
func faultRouter(t *testing.T, policy Policy, ft *faultTransport, fakes ...*fakeBackend) (*Pool, *Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.ts.URL
	}
	reg := metrics.NewRegistry()
	pool, err := NewPool(urls, policy, reg)
	if err != nil {
		t.Fatal(err)
	}
	NewProber(pool, time.Hour, time.Second).ProbeOnce()
	router := NewRouter(pool, Options{Transport: ft, Registry: reg})
	rt := httptest.NewServer(router.Handler())
	t.Cleanup(router.CloseIdleConnections)
	t.Cleanup(rt.Close)
	return pool, router, rt
}

// post sends body to url and returns the status and whether the whole reply
// body could be read.
func post(t *testing.T, url, body string) (int, bool) {
	t.Helper()
	resp, err := http.Post(url, "application/json", jsonRaw([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, err = io.ReadAll(resp.Body)
	return resp.StatusCode, err == nil
}

// TestRouterFaultNeverReplaysChatOrJob: a chat POST and a job submission
// whose attempt fails after the backend ran it — reset before the reply,
// or cut in the reply's body — reach exactly one backend. Replaying either
// on another hop would run the chain twice.
func TestRouterFaultNeverReplaysChatOrJob(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	ft := newFaultTransport()
	pool, _, rt := faultRouter(t, Policy{FailAfter: 100}, ft, f1, f2)
	hits := func() int { return f1.hitCount() + f2.hitCount() }
	chatKey := pool.MintKeyFor(pool.Backends()[0])
	for _, tc := range []struct {
		f          fault
		wantStatus int
		wantWhole  bool
	}{
		{faultReset, http.StatusBadGateway, true},
		{faultCut, 0, false}, // the status is the backend's; the body is cut
	} {
		ft.set(f1.name(), tc.f)
		ft.set(f2.name(), tc.f)
		for _, req := range []struct{ url, body string }{
			{rt.URL + "/v1/sessions/" + chatKey + "/chat", `{"question":"q"}`},
			{rt.URL + "/v1/jobs", `{"question":"q"}`},
		} {
			before := hits()
			status, whole := post(t, req.url, req.body)
			if tc.wantStatus != 0 && status != tc.wantStatus {
				t.Fatalf("%s: POST %s = %d, want %d", tc.f, req.url, status, tc.wantStatus)
			}
			if whole != tc.wantWhole {
				t.Fatalf("%s: POST %s read its whole body = %v, want %v", tc.f, req.url, whole, tc.wantWhole)
			}
			if got := hits() - before; got != 1 {
				t.Fatalf("%s: POST %s reached backends %d times, want exactly 1", tc.f, req.url, got)
			}
		}
	}
}

// TestRouterFaultReplaysIdempotentWithOneID: on the spread routes, an
// attempt reset after the backend ran it is replayed on the next hop, and
// both legs carry the id the router minted for the request.
func TestRouterFaultReplaysIdempotentWithOneID(t *testing.T) {
	bad, good := newFakeBackend(t), newFakeBackend(t)
	ft := newFaultTransport()
	ft.set(bad.name(), faultReset)
	_, router, rt := faultRouter(t, Policy{FailAfter: 100}, ft, bad, good)
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString
	replayed := 0
	for _, req := range []struct{ method, path, body string }{
		{http.MethodGet, "/apis", ""},
		{http.MethodGet, "/apis", ""},
		{http.MethodPost, "/v1/retrieve", `{"queries":["shortest path"]}`},
		{http.MethodPost, "/v1/retrieve", `{"queries":["shortest path"]}`},
	} {
		badBefore, goodBefore := bad.hitCount(), good.hitCount()
		r, err := http.NewRequest(req.method, rt.URL+req.path, jsonRaw([]byte(req.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backend") != good.name() {
			t.Fatalf("%s %s = %d from %q, want 200 from %q", req.method, req.path, resp.StatusCode, resp.Header.Get("X-Backend"), good.name())
		}
		if good.hitCount() != goodBefore+1 {
			t.Fatalf("%s %s reached the good backend %d times, want 1", req.method, req.path, good.hitCount()-goodBefore)
		}
		id := resp.Header.Get("X-Request-ID")
		if !hex16(id) || good.lastID() != id {
			t.Fatalf("%s %s answered id %q; the serving leg saw %q", req.method, req.path, id, good.lastID())
		}
		switch bad.hitCount() - badBefore {
		case 0:
		case 1:
			replayed++
			if bad.lastID() != id {
				t.Fatalf("%s %s: the reset leg saw id %q, the replay %q", req.method, req.path, bad.lastID(), id)
			}
		default:
			t.Fatalf("%s %s reached the faulted backend %d times", req.method, req.path, bad.hitCount()-badBefore)
		}
	}
	// Round-robin alternates the first hop, so each route started on the
	// faulted backend once.
	if replayed != 2 || router.retries.Value() != 2 {
		t.Fatalf("replayed %d requests, retries counter %v; want 2 and 2", replayed, router.retries.Value())
	}
}

// TestRouterFaultMarking pins what counts toward a backend's failure
// marking. A failed attempt does: FailAfter resets in a row take the
// backend down. A body cut after the headers does not, since the attempt
// had answered: even at FailAfter 1 the backend stays up however many
// replies are cut.
func TestRouterFaultMarking(t *testing.T) {
	const requests = 3
	for _, tc := range []struct {
		f         fault
		failAfter int
		wantDown  bool
	}{
		{faultReset, requests, true},
		{faultCut, 1, false},
	} {
		f := newFakeBackend(t)
		ft := newFaultTransport()
		ft.set(f.name(), tc.f)
		pool, _, rt := faultRouter(t, Policy{FailAfter: tc.failAfter, RecoverAfter: time.Hour}, ft, f)
		b := pool.Backends()[0]
		for i := 0; i < requests; i++ {
			if !b.Routable() {
				t.Fatalf("%s: backend down after %d requests, FailAfter %d", tc.f, i, tc.failAfter)
			}
			post(t, rt.URL+"/v1/retrieve", `{"queries":["q"]}`)
		}
		if down := !b.Routable(); down != tc.wantDown {
			t.Fatalf("%s: after %d faulted requests the backend is %s", tc.f, requests, b.State())
		}
	}
}

// TestRouterFaultCountsCutBodies: a reply whose body is cut after the
// headers is the backend's error, so each of three cut replies moves that
// backend's chatgraph_router_errors_total by one, while whole replies move
// it by none and the backend stays up throughout.
func TestRouterFaultCountsCutBodies(t *testing.T) {
	f := newFakeBackend(t)
	ft := newFaultTransport()
	pool, _, rt := faultRouter(t, Policy{FailAfter: 1, RecoverAfter: time.Hour}, ft, f)
	b := pool.Backends()[0]
	for _, tc := range []struct {
		f     fault
		whole bool
		want  uint64
	}{
		{faultNone, true, 0},
		{faultCut, false, 3},
	} {
		ft.set(f.name(), tc.f)
		before := b.errors.Value()
		for i := 0; i < 3; i++ {
			if status, whole := post(t, rt.URL+"/v1/retrieve", `{"queries":["q"]}`); status != http.StatusOK || whole != tc.whole {
				t.Fatalf("%s: POST /v1/retrieve = %d, whole body %v; want 200, %v", tc.f, status, whole, tc.whole)
			}
		}
		if got := b.errors.Value() - before; got != tc.want {
			t.Fatalf("%s: three replies moved errors_total by %v, want %v", tc.f, got, tc.want)
		}
		if !b.Routable() {
			t.Fatalf("%s: backend %s after three replies, want up", tc.f, b.State())
		}
	}
}

// cancelOnWrite is a client connection that goes away as soon as the first
// bytes of the reply reach it: it cancels the request's context and
// accepts the write.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return c.ResponseRecorder.Write(p)
}

// TestRouterClientGoneIsNotABackendError: a reply cut because the client
// left mid-body is not the backend's fault, so it moves no error counter.
func TestRouterClientGoneIsNotABackendError(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			return
		}
		w.Write([]byte(`{"partial":`)) //nolint:errcheck
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(slow.Close)
	pool, router, _ := faultRouter(t, Policy{}, newFaultTransport(), &fakeBackend{ts: slow})
	b := pool.Backends()[0]
	if !b.Routable() {
		t.Fatal("backend not up after probe")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/apis", nil).WithContext(ctx)
	w := cancelOnWrite{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	router.Handler().ServeHTTP(w, req)
	if w.Body.String() != `{"partial":` {
		t.Fatalf("client got %q, want the first chunk and no more", w.Body.String())
	}
	if got := b.errors.Value(); got != 0 {
		t.Fatalf("a client that left mid-body moved the backend's errors_total to %v, want 0", got)
	}
}
