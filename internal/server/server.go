// Package server exposes a shared ChatGraph engine over HTTP. The v1 REST
// surface is multi-session: POST /v1/sessions mints a conversation, each
// conversation chats at POST /v1/sessions/{id}/chat (add ?stream=1 for
// NDJSON progress streaming), reads its dialog at GET
// /v1/sessions/{id}/history, and ends at DELETE /v1/sessions/{id}. Sessions
// idle past the manager's TTL expire automatically. Chains too heavy for
// the per-request deadline run asynchronously: POST /v1/jobs accepts the
// same chat payload (plus an optional pinned chain and priority), GET
// /v1/jobs/{id} polls status and result (?stream=1 tails progress events
// as NDJSON, live or replayed), and DELETE /v1/jobs/{id} cancels. The
// read-only endpoints mirroring the paper's Gradio panels (Fig. 2/3) sit
// beside it: GET /suggest, GET /apis, GET /config, GET /healthz. All state
// shared between conversations lives in the immutable core.Engine, so
// handlers lock per session only and N users chat concurrently.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"chatgraph/internal/core"
	"chatgraph/internal/durable"
	"chatgraph/internal/executor"
	"chatgraph/internal/graph"
	"chatgraph/internal/jobs"
	"chatgraph/internal/metrics"
	"chatgraph/internal/ratelimit"
	"chatgraph/internal/retrieve"
	"chatgraph/internal/tenant"
)

// Options tunes the server.
type Options struct {
	// SessionTTL is how long an idle session lives (0 → DefaultSessionTTL).
	SessionTTL time.Duration
	// MaxSessions caps live sessions (0 → DefaultMaxSessions).
	MaxSessions int
	// Metrics is the registry the server-layer series (HTTP middleware,
	// shedding, session gauges) instrument into, and the one GET /metrics
	// serves. nil → metrics.Default(). The engine, executor, and
	// invoke-cache series always live in metrics.Default() — they describe
	// the process, not one server — so pass a custom registry only to
	// isolate the server-layer series (tests do); production servers should
	// leave it nil so one scrape sees everything.
	Metrics *metrics.Registry
	// MaxInFlight caps concurrently admitted requests on the gated routes
	// (chat, retrieve, session CRUD); excess load is shed with 429 +
	// Retry-After. 0 disables the gate.
	MaxInFlight int
	// MaxRPS caps the aggregate admitted request rate on the gated routes
	// via a global token bucket; excess load is shed with 429 +
	// Retry-After. This is how a replica declares its provisioned capacity
	// to a fronting router tier: the router spreads load, each backend
	// enforces its own budget. 0 disables the cap.
	MaxRPS float64
	// SessionRate is the per-session token-bucket refill rate in requests
	// per second for chat; 0 disables rate limiting.
	SessionRate float64
	// SessionBurst is the token-bucket capacity (0 → one second's worth of
	// tokens, minimum 1).
	SessionBurst int
	// RequestTimeout bounds one gated request's lifetime via a context
	// deadline; expired chats answer 504. 0 disables the deadline.
	RequestTimeout time.Duration
	// JobWorkers sizes the async job worker pool (0 → jobs.DefaultWorkers).
	JobWorkers int
	// JobQueue caps queued (not yet running) jobs; a full queue sheds
	// POST /v1/jobs with 429 (0 → jobs.DefaultQueueDepth).
	JobQueue int
	// JobRetention is how long finished jobs stay queryable (0 →
	// jobs.DefaultRetention).
	JobRetention time.Duration
	// Durable, when set, persists session lifecycle, transcripts, and job
	// records (not uploaded graphs) through the WAL + snapshot store, and the
	// server boots not-ready (/readyz 503, gated routes shed) until the
	// caller completes recovery with Recover — which must be called even
	// when the recovered state is empty.
	Durable *durable.Store
	// Tenants is the multi-tenant admission registry (API-key resolution,
	// per-tenant quotas, weighted-fair shares over MaxInFlight). nil means
	// single-tenant: everything runs as the anonymous tenant with no key
	// checking, and admission behaves like the pre-tenancy global
	// semaphore. The server calls SetCapacity(MaxInFlight) on it at
	// construction; don't share one registry across servers.
	Tenants *tenant.Registry
}

// Server routes HTTP traffic onto a shared core.Engine. Conversation state
// lives in per-session objects managed by the SessionManager; the engine
// itself is immutable, so no server-wide lock exists on the chat path.
type Server struct {
	eng  *core.Engine
	mgr  *SessionManager
	opts Options
	hm   *httpMetrics
	// jobs is the async execution pool behind the /v1/jobs surface.
	jobs *jobs.Manager
	// ready gates traffic during boot recovery: false answers /readyz with
	// 503 and sheds the admission-gated routes. Servers without a durable
	// store are born ready.
	ready atomic.Bool
	// globalBucket enforces Options.MaxRPS across every gated route.
	globalBucket ratelimit.Bucket
	// tenants resolves API keys and runs the weighted-fair gate; tm holds
	// the per-tenant metric handles (bounded label set).
	tenants *tenant.Registry
	tm      *tenantMetrics
}

// New returns a Server over eng.
func New(eng *core.Engine, opts Options) *Server {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Server{
		eng:     eng,
		mgr:     NewSessionManager(eng, opts.SessionTTL, opts.MaxSessions),
		opts:    opts,
		hm:      newHTTPMetrics(reg),
		tenants: opts.Tenants,
	}
	if s.tenants == nil {
		// Single-tenant default: anonymous only, unlimited quota — the
		// fair gate then degenerates to the plain MaxInFlight semaphore.
		s.tenants, _ = tenant.New(nil)
	}
	s.tenants.SetCapacity(opts.MaxInFlight)
	s.tm = newTenantMetrics(reg, s.tenants)
	// The job pool's terminal hook needs s, so the pool is built after the
	// struct (onJobTerminal no-ops when no durable store is configured).
	s.jobs = jobs.New(jobs.Options{
		Workers:    opts.JobWorkers,
		QueueDepth: opts.JobQueue,
		Retention:  opts.JobRetention,
		Metrics:    reg,
		OnTerminal: s.onJobTerminal,
	})
	// With durability on, the server refuses traffic until Recover has
	// replayed the persisted state into it.
	s.ready.Store(opts.Durable == nil)
	// Session gauges read the manager's own bookkeeping at scrape time — no
	// extra work on the session hot path.
	reg.GaugeFunc("chatgraph_sessions_live",
		"Live (unexpired) v1 sessions.", nil,
		func() float64 { return float64(s.mgr.Len()) })
	reg.CounterFunc("chatgraph_sessions_created_total",
		"v1 sessions ever created.", nil,
		func() float64 { return float64(s.mgr.created.Load()) })
	reg.CounterFunc("chatgraph_sessions_expired_total",
		"v1 sessions evicted by TTL expiry.", nil,
		func() float64 { return float64(s.mgr.expired.Load()) })
	reg.CounterFunc("chatgraph_sessions_deleted_total",
		"v1 sessions explicitly deleted.", nil,
		func() float64 { return float64(s.mgr.deleted.Load()) })
	reg.CounterFunc("chatgraph_sessions_restored_total",
		"v1 sessions rebuilt from the durable log at boot.", nil,
		func() float64 { return float64(s.mgr.restored.Load()) })
	return s
}

// Sessions exposes the session manager (daemons wire flags and sweepers to
// it; tests inspect it).
func (s *Server) Sessions() *SessionManager { return s.mgr }

// Jobs exposes the async job pool (daemons wire sweepers to it; tests
// inspect it).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Close stops the async job pool: queued jobs are cancelled, running jobs
// have their contexts cancelled, and Close returns once every worker has
// exited. Call it after draining HTTP traffic.
func (s *Server) Close() { s.jobs.Close() }

// route is one row of the server's route table.
type route struct {
	// pattern is the ServeMux pattern; name is the stable low-cardinality
	// label the route's metrics carry.
	pattern, name string
	h             http.HandlerFunc
	// gated routes run behind the admission policy (admission.go).
	gated bool
}

// routes is the whole HTTP surface as data, so a test can walk it and hold
// ClassifyRoute (the cluster router's view of the same surface) to it.
func (s *Server) routes() []route {
	return []route{
		// v1 multi-session surface.
		{"POST /v1/sessions", "v1.sessions.create", s.handleSessionCreate, true},
		{"GET /v1/sessions", "v1.sessions.list", s.handleSessionList, true},
		{"DELETE /v1/sessions/{id}", "v1.sessions.delete", s.handleSessionDelete, true},
		{"POST /v1/sessions/{id}/chat", "v1.chat", s.handleSessionChat, true},
		{"GET /v1/sessions/{id}/history", "v1.history", s.handleSessionHistory, true},
		{"POST /v1/retrieve", "v1.retrieve", s.handleRetrieve, true},
		// Async job surface. Submission and listing are admission-gated like
		// the other heavy routes (the per-request deadline only bounds the
		// enqueue, never the job); status, streaming, and cancel are not —
		// a long NDJSON tail must outlive RequestTimeout, and cancelling must
		// work on an overloaded server.
		{"POST /v1/jobs", "v1.jobs.create", s.handleJobCreate, true},
		{"GET /v1/jobs", "v1.jobs.list", s.handleJobList, true},
		{"GET /v1/jobs/{id}", "v1.jobs.get", s.handleJobGet, false},
		{"DELETE /v1/jobs/{id}", "v1.jobs.cancel", s.handleJobCancel, false},
		// The demo UI's read-only panels.
		{"/apis", "apis", s.handleAPIs, false},
		{"/suggest", "suggest", s.handleSuggest, false},
		{"/config", "config", s.handleConfig, false},
		{"/healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}, false},
		// Readiness is distinct from liveness: a recovering server is alive
		// (healthz 200) but not ready (readyz 503), so orchestrators and load
		// generators wait for replay instead of hammering a server that sheds.
		// Like the other probe routes, readyz bypasses the admission gate.
		{"GET /readyz", "readyz", s.handleReadyz, false},
		{"GET /metrics", "metrics", s.hm.reg.Handler().ServeHTTP, false},
	}
}

// Handler returns the route table wrapped with request-ID tagging. Every
// route is instrumented (request counter, latency histogram, in-flight
// gauge) under a stable low-cardinality route name; the heavy routes are
// additionally gated by the admission policy (shedding and the per-request
// deadline). /healthz and /metrics bypass the gate so an overloaded server
// still reports that it is overloaded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := rt.h
		if rt.gated {
			h = s.admission(h)
		}
		mux.Handle(rt.pattern, s.instrument(rt.name, h))
	}
	return withRequestID(mux)
}

// requestIDKey carries the per-request correlation ID in the context.
type requestIDKey struct{}

// withRequestID tags every request with a random correlation ID, echoed in
// the X-Request-ID response header and in error JSON.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = randomHex(8)
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// SessionInfo describes one live session on the wire.
type SessionInfo struct {
	SessionID string    `json:"session_id"`
	CreatedAt time.Time `json:"created_at"`
	ExpiresAt time.Time `json:"expires_at"`
	Turns     int       `json:"turns"`
}

func (s *Server) sessionInfo(m *managed) SessionInfo {
	return SessionInfo{
		SessionID: m.ID,
		CreatedAt: m.Created,
		ExpiresAt: m.idleSince().Add(s.mgr.TTL()),
		Turns:     len(m.Session.History()),
	}
}

// SessionCreateRequest is the optional POST /v1/sessions body. SessionID
// pins the new session's identity — the cluster router mints the ID so the
// rendezvous hash of session id → backend lands every later request on the
// creating backend. Plain clients send no body and get a minted ID.
type SessionCreateRequest struct {
	SessionID string `json:"session_id,omitempty"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if r.Body != nil {
		// An empty body is the common case and not an error; anything
		// present must parse. The body is read whole first, so the 4 KiB
		// cap holds even when the JSON value ends early.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<10))
		if err == nil {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		}
		if err != nil && !errors.Is(err, io.EOF) {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
			return
		}
	}
	m, err := s.mgr.CreateWithID(req.SessionID, s.currentTenant(r).Name)
	switch {
	case errors.Is(err, ErrBadID):
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrSessionExists):
		writeError(w, r, http.StatusConflict, err.Error())
		return
	case err != nil:
		writeError(w, r, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.logSessionCreate(m)
	writeJSON(w, http.StatusCreated, s.sessionInfo(m))
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.mgr.Sweep()
	tn := s.currentTenant(r)
	out := []SessionInfo{}
	s.mgr.sessions.Range(func(_, value any) bool {
		if m := value.(*managed); ownedBy(m.Tenant, tn) {
			out = append(out, s.sessionInfo(m))
		}
		return true
	})
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// getOwnedSession fetches a live session and checks the caller's tenant
// owns it, answering cross-tenant (and unknown) IDs with an
// indistinguishable 404 so session IDs cannot be probed across tenants.
func (s *Server) getOwnedSession(w http.ResponseWriter, r *http.Request, id string) (*managed, bool) {
	m, err := s.mgr.Get(id, s.currentTenant(r))
	if err != nil {
		writeError(w, r, http.StatusNotFound, "no such session")
		return nil, false
	}
	return m, true
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.getOwnedSession(w, r, id); !ok {
		return
	}
	if !s.mgr.Delete(id) {
		writeError(w, r, http.StatusNotFound, "no such session")
		return
	}
	s.logSessionDelete(id)
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleSessionHistory(w http.ResponseWriter, r *http.Request) {
	m, ok := s.getOwnedSession(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	turns := []HistoryTurn{}
	for _, t := range m.Session.History() {
		turns = append(turns, HistoryTurn{
			Question:  t.Question,
			Kind:      t.Kind.String(),
			Chain:     t.Chain.String(),
			Answer:    t.Answer,
			ElapsedMS: t.Elapsed.Milliseconds(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"session_id": m.ID, "turns": turns})
}

// HistoryTurn is one dialog exchange in the /history reply.
type HistoryTurn struct {
	Question  string `json:"question"`
	Kind      string `json:"kind"`
	Chain     string `json:"chain"`
	Answer    string `json:"answer"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (s *Server) handleSessionChat(w http.ResponseWriter, r *http.Request) {
	m, ok := s.getOwnedSession(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	if !s.sessionRateLimit(w, r, &m.bucket) {
		return
	}
	q, g, ok := s.decodeChat(w, r)
	if !ok {
		return
	}
	if wantsStream(r) {
		s.streamChat(w, r, m.Session, q, g)
		return
	}
	turn, err := m.Session.Ask(r.Context(), q, g, core.AskOptions{})
	if err != nil {
		writeError(w, r, askStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, chatResponse(turn))
}

// askStatus maps an Ask failure to its HTTP status: a request that ran out
// of its deadline is the server's timeout (504), everything else is the
// question's fault (422).
func askStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// wantsStream reports whether the request asked for an NDJSON stream.
func wantsStream(r *http.Request) bool {
	stream := r.URL.Query().Get("stream")
	return stream == "1" || stream == "true"
}

// ndjson is the one NDJSON line writer, shared by streamed chats and job
// tails so both speak the same wire format: one line per execution event as
// it happens, flushed, then a final "result" or "error" line.
type ndjson struct {
	enc     *json.Encoder
	flusher http.Flusher
	reqID   string
}

// startNDJSON commits the 200 and the streaming headers; from here on errors
// can only be reported in-band, as the final line.
func startNDJSON(w http.ResponseWriter, r *http.Request) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &ndjson{enc: json.NewEncoder(w), flusher: flusher, reqID: requestID(r)}
}

func (n *ndjson) line(v any) {
	n.enc.Encode(v) //nolint:errcheck // best effort once streaming
	if n.flusher != nil {
		n.flusher.Flush()
	}
}

func (n *ndjson) event(e executor.Event) { n.line(chatEventOf(e)) }

// result ends a successful stream.
func (n *ndjson) result(resp ChatResponse) {
	resp.Events = nil // already streamed line by line
	n.line(streamResult{Type: "result", Result: resp})
}

// fail ends a failed stream.
func (n *ndjson) fail(msg string) {
	n.line(streamError{Type: "error", Error: msg, RequestID: n.reqID})
}

// streamChat answers one Ask as NDJSON.
func (s *Server) streamChat(w http.ResponseWriter, r *http.Request, sess *core.Session, q string, g *graph.Graph) {
	out := startNDJSON(w, r)
	turn, err := sess.Ask(r.Context(), q, g, core.AskOptions{OnEvent: out.event})
	if err != nil {
		out.fail(err.Error())
		return
	}
	out.result(chatResponse(turn))
}

// streamResult is the final NDJSON line of a successful stream.
type streamResult struct {
	Type   string       `json:"type"`
	Result ChatResponse `json:"result"`
}

// streamError is the final NDJSON line of a failed stream.
type streamError struct {
	Type      string `json:"type"`
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
}

// Retrieval batch limits: one request embeds and searches every query, so
// both axes are bounded to keep a single POST from monopolizing the pool.
const (
	maxRetrieveQueries = 256
	maxRetrieveK       = 100
)

// RetrieveRequest is the POST /v1/retrieve payload: a batch of queries
// answered in one fused pass over the shared retrieval index.
type RetrieveRequest struct {
	Queries []string `json:"queries"`
	// K is how many APIs to return per query (0 → the engine's default).
	K int `json:"k,omitempty"`
}

// RetrieveHit is one ranked API for one query: the retrieval layer's hit,
// encoded as it stands.
type RetrieveHit = retrieve.Scored

// RetrieveResponse answers a retrieval batch; Results[i] ranks the APIs for
// Queries[i], most relevant first.
type RetrieveResponse struct {
	Results [][]RetrieveHit `json:"results"`
}

// handleRetrieve serves the batched retrieval endpoint: many queries in,
// one engine-level RetrieveBatch out. It needs no session — retrieval state
// is engine-immutable.
func (s *Server) handleRetrieve(w http.ResponseWriter, r *http.Request) {
	var req RetrieveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, r, http.StatusBadRequest, "queries is required")
		return
	}
	if len(req.Queries) > maxRetrieveQueries {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("too many queries (max %d)", maxRetrieveQueries))
		return
	}
	for i, q := range req.Queries {
		if q == "" {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("queries[%d] is empty", i))
			return
		}
	}
	if req.K < 0 || req.K > maxRetrieveK {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("k must be in [0, %d]", maxRetrieveK))
		return
	}
	writeJSON(w, http.StatusOK, RetrieveResponse{Results: s.eng.RetrieveBatch(req.Queries, req.K)})
}

// ChatRequest is the POST /v1/sessions/{id}/chat payload.
type ChatRequest struct {
	Question string `json:"question"`
	// Graph is the uploaded graph in the graph JSON wire format (optional).
	Graph json.RawMessage `json:"graph,omitempty"`
}

// ChatEvent is one execution progress entry in the response.
type ChatEvent struct {
	Type      string `json:"type"`
	Step      string `json:"step,omitempty"`
	Text      string `json:"text,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// ChatResponse is the chat reply.
type ChatResponse struct {
	Answer    string      `json:"answer"`
	Chain     string      `json:"chain"`
	Kind      string      `json:"kind"`
	Events    []ChatEvent `json:"events,omitempty"`
	ElapsedMS int64       `json:"elapsed_ms"`
}

// decodeChat parses and validates a chat body, writing the error response
// itself when ok is false.
func (s *Server) decodeChat(w http.ResponseWriter, r *http.Request) (question string, g *graph.Graph, ok bool) {
	var req ChatRequest
	up, err := readUpload(w, r, &req, &req.Graph)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return "", nil, false
	}
	if req.Question == "" {
		writeError(w, r, http.StatusBadRequest, "question is required")
		return "", nil, false
	}
	g, ok = s.internUpload(w, r, up)
	return req.Question, g, ok
}

// chatEventOf converts an execution event to its wire form.
func chatEventOf(e executor.Event) ChatEvent {
	ce := ChatEvent{Type: e.Type.String(), Text: e.Text, ElapsedMS: e.Elapsed.Milliseconds()}
	if e.StepIndex >= 0 {
		ce.Step = e.Step.String()
	}
	if e.Err != nil {
		ce.Text = e.Err.Error()
	}
	return ce
}

func chatResponse(turn core.Turn) ChatResponse {
	resp := ChatResponse{
		Answer:    turn.Answer,
		Chain:     turn.Chain.String(),
		Kind:      turn.Kind.String(),
		ElapsedMS: turn.Elapsed.Milliseconds(),
	}
	for _, e := range turn.Events {
		resp.Events = append(resp.Events, chatEventOf(e))
	}
	return resp
}

// APIInfo is one /apis entry.
type APIInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Category    string `json:"category"`
}

func (s *Server) handleAPIs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var out []APIInfo
	for _, a := range s.eng.Registry().All() {
		out = append(out, APIInfo{Name: a.Name, Description: a.Description, Category: a.Category})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// No kind (or "unknown") means no uploaded graph yet: generic
	// suggestions. Any other name ParseKind does not know is a client error.
	v := r.URL.Query().Get("kind")
	kind := graph.ParseKind(v)
	if kind == graph.KindUnknown && v != "" && v != "unknown" {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("unknown kind %q (want social, molecule, knowledge, or unknown)", v))
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"questions": core.SuggestedQuestions(kind)})
}

// handleConfig exposes the Fig. 3 parameter panel: the parameter set the
// engine runs.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.eng.Params())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort once status is written
}

// errorBody is the JSON shape of every error reply.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
}

func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg, RequestID: requestID(r)})
}
