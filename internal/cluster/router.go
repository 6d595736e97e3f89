package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"chatgraph/internal/metrics"
	"chatgraph/internal/server"
)

// Options tunes the Router.
type Options struct {
	// MaxBody caps one buffered request body; larger uploads answer 413.
	// Bodies are buffered so a job's minted id can be spliced in and
	// idempotent routes can replay them on the next hop. 0 → 8MiB +
	// headroom (the backend's own chat/job body cap plus slack for the
	// injected routing field).
	MaxBody int64
	// Transport performs the proxied round trips. nil → a cloned
	// http.DefaultTransport with a deeper idle-connection pool.
	Transport http.RoundTripper
	// Registry receives the router-level series (retries, unroutable,
	// fanout); per-backend series were bound when the Pool was built.
	// nil → metrics.Default().
	Registry *metrics.Registry
}

// Router is the cluster front door: an HTTP reverse proxy that owns
// nothing but routing state. Session and job identities are minted here
// and pinned onto backends via the pool's rendezvous hash (see the package
// comment for the routing model); the daemons behind it are stock
// chatgraphd processes that do not know the cluster exists.
type Router struct {
	pool      *Pool
	transport http.RoundTripper
	maxBody   int64
	reg       *metrics.Registry

	// rr rotates stateless traffic across up backends.
	rr atomic.Uint64

	retries       *metrics.Counter
	unroutable    *metrics.Counter
	fanoutPartial *metrics.Counter
}

// NewRouter builds a Router over pool.
func NewRouter(pool *Pool, opts Options) *Router {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	tr := opts.Transport
	if tr == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 512
		t.MaxIdleConnsPerHost = 128
		tr = t
	}
	maxBody := opts.MaxBody
	if maxBody <= 0 {
		maxBody = 8<<20 + 64<<10
	}
	return &Router{
		pool:      pool,
		transport: tr,
		maxBody:   maxBody,
		reg:       reg,
		retries: reg.Counter("chatgraph_router_retries_total",
			"Idempotent requests replayed on the next hop after a failed attempt.", nil),
		unroutable: reg.Counter("chatgraph_router_unroutable_total",
			"Requests refused because no backend could serve them (owner down or pool empty).", nil),
		fanoutPartial: reg.Counter("chatgraph_router_fanout_partial_total",
			"List fan-outs that merged fewer backends than are configured.", nil),
	}
}

// CloseIdleConnections closes the proxy's idle backend connections, which
// the transport otherwise keeps open for as long as the backends are up.
// Call it once the HTTP server in front has shut down.
func (rt *Router) CloseIdleConnections() {
	if c, ok := rt.transport.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// Handler returns the router's route table: its own health/readiness/
// metrics endpoints, and the proxy catch-all for everything else.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// The router is ready while it can route somewhere: readiness follows
	// the pool, so an orchestrator in front of N routers drains one whose
	// entire backend set is gone.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		up := rt.pool.UpCount()
		if up == 0 {
			w.Header().Set("Retry-After", "1")
			server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no backends up", "backends_up": 0})
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "backends_up": up})
	})
	mux.Handle("GET /metrics", rt.reg.Handler())
	mux.HandleFunc("/", rt.route)
	// An unnamed request gets its id here, the way a backend mints one, so
	// every attempt, retry and fan-out leg forwards the same id and every
	// answer the router writes itself carries it too.
	return server.WithRequestID(mux)
}

// route is the proxy catch-all: name, classify, buffer, dispatch.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	aff := server.ClassifyRoute(r.Method, r.URL.Path)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	switch aff.Class {
	case server.AffinitySession, server.AffinityJob:
		if aff.Key == "" {
			rt.create(w, r, body, aff.Class)
			return
		}
		rt.toOwner(w, r, body, aff.Key)
	case server.AffinityFanout:
		rt.fanout(w, r)
	default:
		rt.spread(w, r, body, aff.Idempotent)
	}
}

// readBody buffers the request body up to MaxBody, answering 413 itself
// when the cap is exceeded.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxBody))
	if err != nil {
		server.WriteError(w, r, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body too large or unreadable: %v", err))
		return nil, false
	}
	return body, true
}

// create routes POST /v1/sessions and POST /v1/jobs, the two requests that
// make a keyed object. A client-pinned id goes to its owner. Otherwise the
// router mints an id that a routable backend owns and forwards the create
// with that id pinned, after which every request carrying the id re-derives
// the same owner with no routing table. A session create forwards the
// minted id and nothing else; a job body is forwarded as the client's bytes
// with job_id spliced in last, so it is the id the backend binds.
func (rt *Router) create(w http.ResponseWriter, r *http.Request, body []byte, class server.AffinityClass) {
	var session server.SessionCreateRequest
	var job struct {
		JobID string `json:"job_id"`
	}
	req, id := any(&session), &session.SessionID
	if class == server.AffinityJob {
		req, id = &job, &job.JobID
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, req); err != nil {
			server.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
			return
		}
	}
	if *id != "" {
		rt.toOwner(w, r, body, *id)
		return
	}
	key, target := rt.pool.MintRoutableKey()
	if target == nil {
		rt.refuse(w, r, nil, "no backends up")
		return
	}
	if class == server.AffinityJob {
		body = injectField(body, "job_id", key)
	} else {
		body, _ = json.Marshal(server.SessionCreateRequest{SessionID: key}) // one string field: never fails
	}
	rt.forwardTo(w, r, body, target)
}

// toOwner routes a request bound to existing state: the rendezvous owner
// of key serves it or nobody does — per-session and per-job state is not
// replicated, so a down owner means 503 (plus Retry-After: the half-open
// prober may be about to bring it back), never a silent re-home that would
// answer 404 from a backend that never saw the session.
func (rt *Router) toOwner(w http.ResponseWriter, r *http.Request, body []byte, key string) {
	b := rt.pool.Owner(key)
	if b == nil || !b.Routable() {
		rt.refuse(w, r, b, "owner backend down")
		return
	}
	rt.forwardTo(w, r, body, b)
}

// spread routes stateless traffic round-robin over up backends. Idempotent
// requests that fail in transport, or that land on a backend answering
// 502/503 (mid-recovery replicas shed 503), are replayed on the next hop;
// non-idempotent ones surface the first failure.
func (rt *Router) spread(w http.ResponseWriter, r *http.Request, body []byte, idempotent bool) {
	ups := rt.upBackends()
	if len(ups) == 0 {
		rt.refuse(w, r, nil, "no backends up")
		return
	}
	start := int(rt.rr.Add(1))
	var lastErr error
	var lastBackend *Backend
	for i := 0; i < len(ups); i++ {
		b := ups[(start+i)%len(ups)]
		lastBackend = b
		resp, err := rt.attempt(r, b, body)
		if err != nil {
			lastErr = err
			if idempotent && i+1 < len(ups) {
				rt.retries.Inc()
				continue
			}
			break
		}
		if idempotent && i+1 < len(ups) &&
			(resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable) {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			rt.retries.Inc()
			continue
		}
		rt.forwardResponse(w, r, resp, b)
		return
	}
	name := ""
	if lastBackend != nil {
		name = lastBackend.Name
	}
	w.Header().Set("X-Backend", name)
	server.WriteError(w, r, http.StatusBadGateway, fmt.Sprintf("all hops failed: %v", lastErr))
}

// fanout answers a list route by merging every up backend's reply: the
// union of per-backend state is the cluster's state. Partial outages merge
// what answered (and bump the partial counter); a total outage is 502.
func (rt *Router) fanout(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string][]json.RawMessage)
	var served []string
	partial := false
	for _, b := range rt.pool.Backends() {
		if !b.Routable() {
			partial = true
			continue
		}
		resp, err := rt.attempt(r, b, nil)
		if err != nil {
			partial = true
			continue
		}
		var payload map[string][]json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, rt.maxBody)).Decode(&payload)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			partial = true
			continue
		}
		for k, items := range payload {
			merged[k] = append(merged[k], items...)
		}
		served = append(served, b.Name)
	}
	if len(served) == 0 {
		rt.refuse(w, r, nil, "no backends up")
		return
	}
	if partial {
		rt.fanoutPartial.Inc()
		w.Header().Set("X-Cluster-Partial", "1")
	}
	sort.Strings(served)
	w.Header().Set("X-Backend", strings.Join(served, ","))
	out := make(map[string]any, len(merged))
	for k, items := range merged {
		out[k] = items
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// refuse answers 503 for a request nothing can serve right now. b names
// the down owner when there is one.
func (rt *Router) refuse(w http.ResponseWriter, r *http.Request, b *Backend, msg string) {
	rt.unroutable.Inc()
	if b != nil {
		w.Header().Set("X-Backend", b.Name)
	}
	w.Header().Set("Retry-After", "1")
	server.WriteError(w, r, http.StatusServiceUnavailable, msg)
}

// forwardTo runs one attempt against b and relays the outcome; transport
// failure is 502 (and counts toward b's failure marking).
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, body []byte, b *Backend) {
	resp, err := rt.attempt(r, b, body)
	if err != nil {
		w.Header().Set("X-Backend", b.Name)
		server.WriteError(w, r, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.Name, err))
		return
	}
	rt.forwardResponse(w, r, resp, b)
}

// attempt proxies one buffered request to b, instrumenting the round trip
// and feeding the failure-marking machine: transport errors mark a
// failure, any response marks connectivity success. The caller owns the
// returned response body.
func (rt *Router) attempt(r *http.Request, b *Backend, body []byte) (*http.Response, error) {
	u := *b.URL
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	var reader io.Reader
	if len(body) > 0 {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), reader)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	req.ContentLength = int64(len(body))
	b.requests.Inc()
	start := time.Now()
	resp, err := rt.transport.RoundTrip(req)
	b.duration.Observe(time.Since(start).Seconds())
	if err != nil {
		// A cancelled client context is not the backend's failure.
		if r.Context().Err() == nil {
			b.errors.Inc()
			b.MarkFailure()
		}
		return nil, err
	}
	b.MarkSuccess()
	if resp.StatusCode >= 500 {
		b.errors.Inc()
	}
	return resp, nil
}

// forwardResponse relays the backend response, flushing after every chunk
// so NDJSON chat and job streams pass through live. A body that fails after
// the headers is relayed as far as it came and counts as one of b's errors,
// unless the client went away first; like any answered attempt, it does not
// count toward b's failure marking.
func (rt *Router) forwardResponse(w http.ResponseWriter, r *http.Request, resp *http.Response, b *Backend) {
	defer resp.Body.Close()
	// The backend echoes the id it was sent; keep one copy, not two.
	id := w.Header().Get("X-Request-ID")
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("X-Request-ID", id)
	w.Header().Set("X-Backend", b.Name)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			if err != io.EOF && r.Context().Err() == nil {
				b.errors.Inc()
			}
			return
		}
	}
}

// upBackends snapshots the routable backends in configuration order.
func (rt *Router) upBackends() []*Backend {
	out := make([]*Backend, 0, len(rt.pool.Backends()))
	for _, b := range rt.pool.Backends() {
		if b.Routable() {
			out = append(out, b)
		}
	}
	return out
}

// hopByHop are the headers a proxy must not forward (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection":          true,
	"Proxy-Connection":    true,
	"Keep-Alive":          true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// injectField splices `"field":"value"` in as the last member of a JSON
// object body without re-encoding it — re-marshalling through a map would
// disturb number formatting in graph payloads. Last, because the backend's
// decoder lets the last duplicate of a key win and matches keys without
// regard to case: whatever the body already spells ("job_id":"", "Job_Id",
// null), the injected value is the one the backend binds. The caller has
// decoded body as JSON; one that is not an object passes through untouched
// (the backend will reject it with its own 400).
func injectField(body []byte, field, value string) []byte {
	end := bytes.LastIndexByte(body, '}')
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); end < 0 || len(trimmed) == 0 || trimmed[0] != '{' {
		return body
	}
	head := bytes.TrimRight(body[:end], " \t\r\n")
	var out bytes.Buffer
	out.Grow(len(body) + len(field) + len(value) + 8)
	out.Write(head)
	if head[len(head)-1] != '{' {
		out.WriteByte(',')
	}
	fmt.Fprintf(&out, "%q:%q", field, value)
	out.Write(body[end:])
	return out.Bytes()
}
