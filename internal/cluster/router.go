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
	"chatgraph/internal/tenant"
)

// Options tunes the Router.
type Options struct {
	// MaxBody caps one buffered request body; larger uploads answer 413.
	// Bodies are buffered so placement can hash them and idempotent routes
	// can replay them on the next hop. 0 → 8MiB + headroom (the backend's
	// own chat/job body cap plus slack for the injected routing fields).
	MaxBody int64
	// Transport performs the proxied round trips. nil → a cloned
	// http.DefaultTransport with a deeper idle-connection pool.
	Transport http.RoundTripper
	// Registry receives the router-level series (retries, unroutable,
	// fanout); per-backend series were bound when the Pool was built.
	// nil → metrics.Default().
	Registry *metrics.Registry
	// Tenants, when set, labels router traffic per tenant (the same
	// bounded set the backends use, plus "unknown" for unrecognized
	// keys). The router never rejects on tenancy — backends own
	// enforcement — it only forwards the API key header and observes.
	Tenants *tenant.Registry
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

	// tenants maps API keys to bounded label values; tenantSeries holds
	// one pre-resolved counter per possible value (nil without -tenants).
	tenants      *tenant.Registry
	tenantSeries map[string]*metrics.Counter
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
	rt := &Router{
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
	if opts.Tenants != nil {
		rt.tenants = opts.Tenants
		rt.tenantSeries = make(map[string]*metrics.Counter)
		for _, name := range append(opts.Tenants.Names(), "unknown") {
			rt.tenantSeries[name] = reg.Counter("chatgraph_router_tenant_requests_total",
				"Proxied requests per tenant (by API key; unknown keys pool under \"unknown\").",
				metrics.Labels{"tenant": name})
		}
	}
	return rt
}

// Handler returns the router's route table: its own health/readiness/
// metrics endpoints, and the proxy catch-all for everything else.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		rtWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// The router is ready while it can route somewhere: readiness follows
	// the pool, so an orchestrator in front of N routers drains one whose
	// entire backend set is gone.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		up := rt.pool.UpCount()
		if up == 0 {
			w.Header().Set("Retry-After", "1")
			rtWriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no backends up", "backends_up": 0})
			return
		}
		rtWriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "backends_up": up})
	})
	mux.Handle("GET /metrics", rt.reg.Handler())
	mux.HandleFunc("/", rt.route)
	return mux
}

// route is the proxy catch-all: name, classify, buffer, dispatch.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	// An unnamed request gets its id here (16 hex digits, as a backend
	// mints), so every attempt, retry and fan-out leg forwards the same one
	// and every answer the router writes itself carries it too.
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = randomHex(8)
		r.Header.Set("X-Request-ID", id)
	}
	w.Header().Set("X-Request-ID", id)
	if rt.tenants != nil {
		// Observation only: the label set is bounded at construction, so
		// key-spraying cannot mint series.
		rt.tenantSeries[rt.tenants.NameForKey(r.Header.Get(server.APIKeyHeader))].Inc()
	}
	aff := server.ClassifyRoute(r.Method, r.URL.Path)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	switch aff.Class {
	case server.AffinitySession:
		if aff.Key == "" {
			rt.createSession(w, r, body)
			return
		}
		rt.toOwner(w, r, body, aff.Key)
	case server.AffinityJob:
		if aff.Key == "" {
			rt.createJob(w, r, body)
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
		rtWriteJSON(w, http.StatusRequestEntityTooLarge, errBody(fmt.Sprintf("request body too large or unreadable: %v", err)))
		return nil, false
	}
	return body, true
}

// createSession routes POST /v1/sessions: mint a session id, derive its
// owner from the rendezvous hash, and forward the create with the id
// pinned — after which every request carrying the id re-derives the same
// owner with no routing table. A client-pinned id is honored (its owner
// must be up).
func (rt *Router) createSession(w http.ResponseWriter, r *http.Request, body []byte) {
	var req server.SessionCreateRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			rtWriteJSON(w, http.StatusBadRequest, errBody(fmt.Sprintf("decode request: %v", err)))
			return
		}
	}
	if req.SessionID != "" {
		rt.toOwner(w, r, body, req.SessionID)
		return
	}
	key, target := rt.pool.MintRoutableKey()
	if target == nil {
		rt.refuse(w, nil, "no backends up")
		return
	}
	pinned, err := json.Marshal(server.SessionCreateRequest{SessionID: key})
	if err != nil {
		rtWriteJSON(w, http.StatusInternalServerError, errBody(err.Error()))
		return
	}
	rt.forwardTo(w, r, pinned, target)
}

// createJob routes POST /v1/jobs. Placement prefers the content hash of
// the uploaded graph — identical interned graphs then concentrate on one
// shard's graphstore, invoke cache, and CSR memos instead of duplicating
// across the pool — and falls back to spreading for graph-less jobs. The
// job id is then minted to hash onto the placed backend, so polls and
// cancels re-derive the owner from the id alone.
func (rt *Router) createJob(w http.ResponseWriter, r *http.Request, body []byte) {
	var req struct {
		JobID string `json:"job_id"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			rtWriteJSON(w, http.StatusBadRequest, errBody(fmt.Sprintf("decode request: %v", err)))
			return
		}
	}
	if req.JobID != "" {
		rt.toOwner(w, r, body, req.JobID)
		return
	}
	var target *Backend
	if ck, ok := server.UploadContentKey(body); ok {
		target = rt.pool.Owner(ck)
		if target != nil && !target.Routable() {
			// The content's home shard is down: place on the next hop in
			// its rank order (stable while the outage lasts) rather than
			// refusing — placement is an optimization, not correctness.
			target = rt.pool.FirstRoutable(ck)
		}
	} else {
		_, target = rt.pool.MintRoutableKey()
	}
	if target == nil {
		rt.refuse(w, nil, "no backends up")
		return
	}
	key := rt.pool.MintKeyFor(target)
	// Route by the key's actual owner: on the (≈1e-7) sampling miss the
	// job still lands where its id points, so it remains pollable.
	owner := rt.pool.Owner(key)
	if owner == nil || !owner.Routable() {
		rt.refuse(w, owner, "job owner down")
		return
	}
	rt.forwardTo(w, r, injectField(body, "job_id", key), owner)
}

// toOwner routes a request bound to existing state: the rendezvous owner
// of key serves it or nobody does — per-session and per-job state is not
// replicated, so a down owner means 503 (plus Retry-After: the half-open
// prober may be about to bring it back), never a silent re-home that would
// answer 404 from a backend that never saw the session.
func (rt *Router) toOwner(w http.ResponseWriter, r *http.Request, body []byte, key string) {
	b := rt.pool.Owner(key)
	if b == nil || !b.Routable() {
		rt.refuse(w, b, "owner backend down")
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
		rt.refuse(w, nil, "no backends up")
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
		rt.forwardResponse(w, resp, b)
		return
	}
	name := ""
	if lastBackend != nil {
		name = lastBackend.Name
	}
	w.Header().Set("X-Backend", name)
	rtWriteJSON(w, http.StatusBadGateway, errBody(fmt.Sprintf("all hops failed: %v", lastErr)))
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
		rt.refuse(w, nil, "no backends up")
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
	rtWriteJSON(w, http.StatusOK, out)
}

// refuse answers 503 for a request nothing can serve right now. b names
// the down owner when there is one.
func (rt *Router) refuse(w http.ResponseWriter, b *Backend, msg string) {
	rt.unroutable.Inc()
	if b != nil {
		w.Header().Set("X-Backend", b.Name)
	}
	w.Header().Set("Retry-After", "1")
	rtWriteJSON(w, http.StatusServiceUnavailable, errBody(msg))
}

// forwardTo runs one attempt against b and relays the outcome; transport
// failure is 502 (and counts toward b's failure marking).
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, body []byte, b *Backend) {
	resp, err := rt.attempt(r, b, body)
	if err != nil {
		w.Header().Set("X-Backend", b.Name)
		rtWriteJSON(w, http.StatusBadGateway, errBody(fmt.Sprintf("backend %s: %v", b.Name, err)))
		return
	}
	rt.forwardResponse(w, resp, b)
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
	if prior := r.Header.Get("X-Forwarded-For"); prior != "" {
		req.Header.Set("X-Forwarded-For", prior+", "+remoteIP(r))
	} else {
		req.Header.Set("X-Forwarded-For", remoteIP(r))
	}
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
// so NDJSON chat and job streams pass through live.
func (rt *Router) forwardResponse(w http.ResponseWriter, resp *http.Response, b *Backend) {
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

func remoteIP(r *http.Request) string {
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i > 0 {
		host = host[:i]
	}
	return strings.Trim(host, "[]")
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

// errBody is the router's error JSON shape, mirroring the backend's.
func errBody(msg string) map[string]string { return map[string]string{"error": msg} }

func rtWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort once status is written
}
