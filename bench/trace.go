package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chatgraph/internal/chain"
	"chatgraph/internal/cluster"
	"chatgraph/internal/core"
	"chatgraph/internal/durable"
	"chatgraph/internal/executor"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/jobs"
	"chatgraph/internal/llm"
	"chatgraph/internal/metrics"
	"chatgraph/internal/retrieve"
	"chatgraph/internal/seq"
	"chatgraph/internal/server"
	"chatgraph/internal/tenant"
)

// span is one timed call into a layer. Spans of one request share Request;
// Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the traced run's own warm-up stays out of the file.
// begin and end lock: a job's pipeline spans are recorded on the pool's
// worker while the replaying goroutine ends the submit span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.mu.Lock()
		t.spans[id].EndNS = int64(time.Since(t.t0))
		t.mu.Unlock()
	}
}

// total is the summed duration and the number of spans called name.
func (t *tracer) total(name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	return sum, n
}

// childTotal is the summed duration of every span whose parent is called
// parentName.
func (t *tracer) childTotal(parentName string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parentName {
			sum += s.dur()
		}
	}
	return sum
}

// self is span id's duration minus the children measured for it, never
// below zero (a child re-measured outside its parent's interval, like
// seq.sequentialize, can exceed a parent that hit a warmer cache).
func (t *tracer) self(id int) time.Duration {
	d := t.spans[id].dur()
	for _, s := range t.spans {
		if s.Parent == id {
			d -= s.dur()
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// glueAPIs mirrors core's unexported alwaysCandidates: the APIs appended to
// every retrieval result before the prompt is built. The traced run checks
// its replayed answer against the handler's, so drift here is caught.
var glueAPIs = []string{"graph.classify", "graph.stats", "report.compose", "graph.apply_edits"}

const retrievalK = 6 // core.NewEngine's default RetrievalK

// inproc is the daemon's serving stack assembled in this process for one
// workload: the engine chatgraphd builds plus the workload's durable store
// and tenant registry.
type inproc struct {
	eng     *core.Engine
	dstore  *durable.Store
	tenants *tenant.Registry
	srv     *server.Server
}

// newInproc builds a private stack under dir. withServer adds the
// server.Server the handler pass drives; the layer pass calls the layers
// itself and needs none.
func newInproc(w workload, model *finetune.Model, dir string, withServer bool) (*inproc, error) {
	eng, err := newEngine(model, w.quantize)
	if err != nil {
		return nil, err
	}
	p := &inproc{eng: eng}
	var recovered *durable.State
	if w.durable {
		p.dstore, recovered, err = durable.Open(durable.Options{Dir: dir, Sync: durable.SyncInterval, Metrics: metrics.NewRegistry()})
		if err != nil {
			return nil, err
		}
	}
	opts := server.Options{RequestTimeout: 60 * time.Second, Durable: p.dstore, Metrics: metrics.NewRegistry()}
	if w.tenants {
		if p.tenants, err = tenant.Load([]byte(tenantsFile)); err != nil {
			return nil, err
		}
		opts.Tenants, opts.MaxInFlight, opts.JobWorkers, opts.JobQueue = p.tenants, 64, 2, 64
		p.tenants.SetCapacity(opts.MaxInFlight)
	}
	if withServer {
		p.srv = server.New(eng, opts)
		if err := p.srv.Recover(recovered); err != nil {
			return nil, err
		}
	}
	// Age the graph store to the workload's steady state (see
	// workload.prefill). The graphs only need to be distinct and of the
	// workload's size; they are never looked up again.
	rng := rand.New(rand.NewSource(daemonSeed))
	for i := 0; i < w.prefill; i++ {
		eng.Graphs().Intern(graph.PlantedCommunities(4, 50, .3, .02, rng))
	}
	return p, nil
}

func (p *inproc) close() {
	if p.srv != nil {
		p.srv.Close()
	}
	if p.dstore != nil {
		p.dstore.Close() //nolint:errcheck // scratch store, deleted with its directory
	}
}

func (p *inproc) key(request int) string {
	if p.tenants == nil {
		return ""
	}
	return tenantKeys[request%clients]
}

// serve pushes one request through h in this goroutine.
func (p *inproc) serve(h http.Handler, method, path string, body []byte, key string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if key != "" {
		req.Header.Set(server.APIKeyHeader, key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// handlerReplay pushes ops through Server.Handler().ServeHTTP, one
// server.handler span per HTTP request, and checks every reply like the load
// client does.
type handlerReplay struct {
	p        *inproc
	h        http.Handler
	sessions [clients]string
	check    *checker
}

func (p *inproc) newHandlerReplay() (*handlerReplay, error) {
	hr := &handlerReplay{p: p, h: p.srv.Handler(), check: newChecker(p.eng.Registry())}
	for i := range hr.sessions {
		rec := p.serve(hr.h, http.MethodPost, "/v1/sessions", nil, p.key(i))
		var info server.SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("in-process session create: status %d: %v", rec.Code, err)
		}
		hr.sessions[i] = info.SessionID
	}
	return hr, nil
}

// op serves ops[i] and returns what the handler answered: the layer replay
// executes the same chain and must arrive at the same answer.
func (hr *handlerReplay) op(t *tracer, i int, o *op) (reply, error) {
	timed := func(method, path string, body []byte) *httptest.ResponseRecorder {
		id := t.begin("server.handler", -1, i)
		rec := hr.p.serve(hr.h, method, path, body, hr.p.key(i))
		t.end(id)
		return rec
	}
	var rec *httptest.ResponseRecorder
	switch o.kind {
	case opChat:
		rec = timed(http.MethodPost, "/v1/sessions/"+hr.sessions[i%clients]+"/chat", o.body)
	case opChatStream:
		rec = timed(http.MethodPost, "/v1/sessions/"+hr.sessions[i%clients]+"/chat?stream=1", o.body)
	case opRetrieve:
		rec = timed(http.MethodPost, "/v1/retrieve", o.body)
	case opJob:
		rec = timed(http.MethodPost, "/v1/jobs", o.body)
		var info server.JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusAccepted {
			return reply{}, fmt.Errorf("job submit: status %d: %v", rec.Code, err)
		}
		rec = timed(http.MethodGet, "/v1/jobs/"+info.JobID+"?stream=1", nil)
	}
	if rec.Code/100 != 2 {
		return reply{}, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	r, _, err := hr.check.read(o, rec.Body)
	return r, err
}

// layerCounts are the work counts taken at the layer boundaries.
type layerCounts struct {
	parseBytes, paths, rendered, promptBytes, steps, queries int
	queueWaitMS, jobRunMS                                    []float64
}

// layerReplay replays ops by calling each layer's public functions in the
// order the handlers do, one span per call under a per-request root span.
type layerReplay struct {
	p     *inproc
	ix    *retrieve.Index
	descs map[string]string
	sim   *llm.SimClient
	exec  *executor.Executor
	pool  *jobs.Manager
	// t and lc receive the spans and counts of the ops being replayed; the
	// warm-up replays into a nil tracer and a discarded layerCounts.
	t  *tracer
	lc *layerCounts
	// prompt is the llm.build_prompt span of the op last replayed, under
	// which seq hangs its measurement.
	prompt int
}

func (p *inproc) newLayerReplay() *layerReplay {
	return &layerReplay{
		p:     p,
		ix:    p.eng.Retrieval(),
		descs: p.eng.Retrieval().Descriptions(),
		sim:   llm.NewSimClient(p.eng.Model(), 0),
		exec:  executor.New(p.eng.Registry(), p.eng.Env()),
		pool:  jobs.New(jobs.Options{Workers: 2, QueueDepth: 64, Metrics: metrics.NewRegistry()}),
	}
}

func (lr *layerReplay) close() { lr.pool.Close() }

// op replays ops[i]; want is what the handler answered for it.
func (lr *layerReplay) op(i int, o *op, want reply) error {
	t, p := lr.t, lr.p
	root := t.begin("request", -1, i)
	defer t.end(root)
	call := func(name string) int { return t.begin(name, root, i) }

	if p.tenants != nil {
		id := call("tenant.admit")
		tn, err := p.tenants.Resolve(p.key(i))
		if err != nil {
			return err
		}
		release, verdict := p.tenants.Acquire(tn)
		t.end(id)
		if verdict != tenant.Admitted {
			return fmt.Errorf("tenant %s not admitted", tn.Name)
		}
		defer release()
	}

	var body any
	if o.kind == opRetrieve {
		id := call("retrieve.batch")
		hits := lr.ix.TopAPIsBatch(o.queries, retrieveK)
		t.end(id)
		resp := server.RetrieveResponse{Results: make([][]server.RetrieveHit, len(hits))}
		for qi, hs := range hits {
			for _, h := range hs {
				resp.Results[qi] = append(resp.Results[qi], server.RetrieveHit{Name: h.Name, Description: lr.ix.Description(h.Name), Distance: h.Distance})
			}
		}
		lr.lc.queries += len(o.queries)
		body = resp
	} else {
		resp, err := lr.chat(root, i, o, want)
		if err != nil {
			return err
		}
		if resp.Answer != want.answer {
			return fmt.Errorf("answer differs from the handler pass's")
		}
		body = resp
	}

	id := call("server.encode")
	_, err := json.MarshalIndent(body, "", "  ")
	t.end(id)
	return err
}

// chat is the chat and job handlers laid open: parse → intern → blob →
// (for a job: queue hand-off, then on the worker) the Ask pipeline.
func (lr *layerReplay) chat(root, i int, o *op, want reply) (server.ChatResponse, error) {
	t, p := lr.t, lr.p
	call := func(name string) int { return t.begin(name, root, i) }
	var none server.ChatResponse

	id := call("graph.parse")
	g, err := graph.ParseJSON(o.graph)
	t.end(id)
	if err != nil {
		return none, err
	}
	lr.lc.parseBytes += len(o.graph)
	id = call("graphstore.intern")
	g = p.eng.Graphs().Intern(g)
	t.end(id)
	sha := ""
	if p.dstore != nil {
		id = call("durable.persist_graph")
		sha, err = p.dstore.PersistGraph(g)
		t.end(id)
		if err != nil {
			return none, err
		}
	}
	if o.kind != opJob {
		return lr.ask(root, i, g, o, want)
	}

	// jobs.run spans submit through terminal state; the pipeline spans the
	// worker records are its children, so its self time is the queue wait
	// plus the pool's own bookkeeping.
	run := call("jobs.run")
	var resp server.ChatResponse
	var taskErr error
	id = t.begin("jobs.submit", run, i)
	j, err := lr.pool.Submit(jobs.PriorityNormal, func(context.Context, func(executor.Event)) (any, error) {
		resp, taskErr = lr.ask(run, i, g, o, want)
		return nil, taskErr
	})
	t.end(id)
	if err != nil {
		return none, err
	}
	<-j.Done()
	t.end(run)
	if taskErr != nil {
		return none, taskErr
	}
	st := j.Status()
	lr.lc.queueWaitMS = append(lr.lc.queueWaitMS, ms(st.Started.Sub(st.Submitted)))
	lr.lc.jobRunMS = append(lr.lc.jobRunMS, ms(st.Finished.Sub(st.Started)))
	if p.dstore != nil {
		id = call("durable.log_job")
		rec := durable.JobRecord{ID: st.ID, Question: o.question, GraphSHA: sha, State: st.State.String()}
		if err = p.dstore.LogJobSubmit(rec); err == nil {
			err = p.dstore.LogJobDone(rec)
		}
		t.end(id)
	}
	return resp, err
}

// ask is Session.Ask laid open: classify → retrieve → prompt → complete →
// parse → execute → WAL append.
func (lr *layerReplay) ask(parent, i int, g *graph.Graph, o *op, want reply) (server.ChatResponse, error) {
	t, eng := lr.t, lr.p.eng
	call := func(name string) int { return t.begin(name, parent, i) }
	ctx := context.Background()
	var none server.ChatResponse

	id := call("graph.classify")
	kind := graph.Classify(g)
	t.end(id)

	id = call("retrieve.names")
	cands := lr.ix.Names(o.question, retrievalK)
	t.end(id)
	seen := map[string]bool{}
	for _, c := range cands {
		seen[c] = true
	}
	for _, a := range glueAPIs {
		if _, ok := eng.Registry().Get(a); ok && !seen[a] {
			cands = append(cands, a)
		}
	}

	lr.prompt = call("llm.build_prompt")
	msgs := llm.BuildPrompt(o.question, g, kind, cands, lr.descs, llm.PromptConfig{})
	t.end(lr.prompt)

	id = call("llm.complete")
	text, err := lr.sim.Complete(ctx, msgs)
	t.end(id)
	if err != nil {
		return none, err
	}
	id = call("chain.parse")
	_, err = chain.Parse(text)
	t.end(id)
	if err != nil {
		return none, err
	}
	// The chain that runs is the one the handler ran: core repairs the
	// generated chain and fills its arguments with unexported helpers.
	c, err := chain.Parse(want.chain)
	if err != nil {
		return none, err
	}

	resp := server.ChatResponse{Chain: want.chain, Kind: kind.String()}
	id = call("executor.run")
	out, err := lr.exec.Run(ctx, g, c, executor.Options{OnEvent: func(e executor.Event) {
		ce := server.ChatEvent{Type: e.Type.String(), Text: e.Text, ElapsedMS: e.Elapsed.Milliseconds()}
		if e.StepIndex >= 0 {
			ce.Step = e.Step.String()
		}
		resp.Events = append(resp.Events, ce)
	}})
	t.end(id)
	if err != nil {
		return none, err
	}
	resp.Answer, resp.ElapsedMS = out.Final.Text, out.Elapsed.Milliseconds()

	// Job turns live on a private session the server never logs.
	if lr.p.dstore != nil && o.kind != opJob {
		id = call("durable.log_turn")
		err = lr.p.dstore.LogTurn(durable.TurnRecord{SessionID: "bench", Index: i, Question: o.question,
			Kind: resp.Kind, Chain: resp.Chain, Answer: resp.Answer, ElapsedMS: resp.ElapsedMS})
		t.end(id)
		if err != nil {
			return none, err
		}
	}
	lr.lc.promptBytes += len(msgs[len(msgs)-1].Content)
	lr.lc.steps += len(c)
	return resp, nil
}

// seq times llm.BuildPrompt's dominant callee on its own, with the
// arguments BuildPrompt's defaults give it, and hangs the measurement under
// the llm.build_prompt span op just recorded for the same request. It runs
// after the request's layer replay has finished, so no other span of the
// request has the repeated path cover inside it.
func (lr *layerReplay) seq(i int, o *op) error {
	if o.graph == nil {
		return nil
	}
	g, err := graph.ParseJSON(o.graph)
	if err != nil {
		return err
	}
	g.Freeze() // BuildPrompt finds the CSR already built by graph.Classify
	id := lr.t.begin("seq.sequentialize", lr.prompt, i)
	res := seq.Sequentialize(g, seq.Options{MaxLength: 3, Levels: 2})
	seq.RenderAll(g, res.Paths, 40)
	if len(res.SuperPaths) > 0 {
		seq.RenderAll(res.Super, res.SuperPaths, 20)
	}
	lr.t.end(id)
	lr.lc.paths += len(res.Paths) + len(res.SuperPaths)
	lr.lc.rendered += min(len(res.Paths), 40) + min(len(res.SuperPaths), 20)
	return nil
}

// replay drives the handler stack and the layer stack side by side: each op
// goes through the handler, then layer by layer, then the sequentializer
// alone, before the next op starts. Interleaving is what makes the handler
// span and the layer spans of one request comparable on a host whose speed
// wanders from one ten-second stretch to the next.
type replay struct {
	hp, lp *inproc
	hr     *handlerReplay
	lr     *layerReplay
}

// newReplay builds the two private stacks under dir.
func newReplay(w workload, model *finetune.Model, dir string) (*replay, error) {
	hp, err := newInproc(w, model, filepath.Join(dir, "handler"), true)
	if err != nil {
		return nil, err
	}
	lp, err := newInproc(w, model, filepath.Join(dir, "layers"), false)
	if err != nil {
		hp.close()
		return nil, err
	}
	r := &replay{hp: hp, lp: lp, lr: lp.newLayerReplay()}
	if r.hr, err = hp.newHandlerReplay(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replay) close() {
	r.lr.close()
	r.lp.close()
	r.hp.close()
}

func (r *replay) run(t *tracer, lc *layerCounts, ops []op) error {
	r.lr.t, r.lr.lc = t, lc
	for i := range ops {
		o := &ops[i]
		want, err := r.hr.op(t, i, o)
		if err == nil {
			err = r.lr.op(i, o, want)
		}
		if err == nil {
			err = r.lr.seq(i, o)
		}
		if err != nil {
			return fmt.Errorf("in-process replay, %s op %d (%q): %w", o.kind, i, o.question, err)
		}
	}
	return nil
}

// tracedRequests is how many paced ops the traced run replays (after up to
// as many warm-up ops, replayed unrecorded so caches are in the state the
// daemon's were when its paced phase began).
const tracedRequests = 300

// runTrace replays the first n paced ops of an end-to-end run in process
// (see replay), writes the spans
// to outDir/trace-<workload>.json and returns the per-layer metrics.
func runTrace(w workload, model *finetune.Model, e2e *e2eResult, n int, seed int64) (map[string]float64, error) {
	warm, ops := e2e.warmOps, e2e.pacedOps
	if len(warm) > n {
		warm = warm[:n]
	}
	if len(ops) > n {
		ops = ops[:n]
	}
	dir, err := os.MkdirTemp(outDir, w.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rp, err := newReplay(w, model, dir)
	if err != nil {
		return nil, err
	}
	defer rp.close()

	if err := rp.run(nil, &layerCounts{}, warm); err != nil {
		return nil, err
	}
	store, cache := rp.lp.eng.Graphs(), rp.lp.eng.Env().Cache
	gh0, gm0 := store.Counters()
	ge0 := store.Evictions()
	ih0, im0 := cache.Counters()
	ie0 := cache.Evictions()
	t := newTracer()
	var lc layerCounts
	if err := rp.run(t, &lc, ops); err != nil {
		return nil, err
	}
	gh1, gm1 := store.Counters()
	ih1, im1 := cache.Counters()
	hop, err := clusterHopMS(rp.hp.srv.Handler())
	if err != nil {
		return nil, err
	}

	nops := float64(len(ops))
	perOp := func(name string) float64 {
		d, _ := t.total(name)
		return ms(d) / nops
	}
	calls := func(names ...string) float64 {
		total := 0
		for _, name := range names {
			_, c := t.total(name)
			total += c
		}
		return float64(total)
	}
	handler := perOp("server.handler")
	layers := ms(t.childTotal("request")) / nops
	seqMS := perOp("seq.sequentialize")
	var promptSelf time.Duration
	for id, s := range t.spans {
		if s.Name == "llm.build_prompt" {
			promptSelf += t.self(id)
		}
	}
	batch, _ := t.total("retrieve.batch")

	m := map[string]float64{
		"server.handler_ms":     handler,
		"server.self_ms":        handler - layers,
		"server.self_share":     ratio(handler-layers, handler),
		"server.encode_ms":      perOp("server.encode"),
		"layers.covered_share":  ratio(layers, handler),
		"trace.handler_gap_pct": 100 * ratio(handler-e2e.daemonHandlerMS, e2e.daemonHandlerMS),
		"trace.requests":        nops,
		"cluster.hop_ms":        hop,

		"graph.parse_ms":    perOp("graph.parse"),
		"graph.parse_bytes": float64(lc.parseBytes) / nops,
		"graph.classify_ms": perOp("graph.classify"),

		"graphstore.intern_ms": perOp("graphstore.intern"),
		"graphstore.hit_ratio": ratio(float64(gh1-gh0), float64(gh1-gh0+gm1-gm0)),
		"graphstore.evictions": float64(store.Evictions() - ge0),
		"graphstore.bytes":     float64(store.Bytes()),

		"retrieve.names_ms":           perOp("retrieve.names"),
		"retrieve.batch_ms_per_query": ratio(ms(batch), float64(lc.queries)),

		"seq.sequentialize_ms": seqMS,
		"seq.paths_generated":  float64(lc.paths) / nops,
		"seq.rendered_ratio":   ratio(float64(lc.rendered), float64(lc.paths)),
		"seq.share_of_handler": ratio(seqMS, handler),

		"llm.prompt_self_ms": ms(promptSelf) / nops,
		"llm.prompt_bytes":   float64(lc.promptBytes) / nops,
		"llm.complete_ms":    perOp("llm.complete"),
		"chain.parse_ms":     perOp("chain.parse"),

		"executor.run_ms":       perOp("executor.run"),
		"executor.steps":        float64(lc.steps) / nops,
		"apis.invoke_hit_ratio": ratio(float64(ih1-ih0), float64(ih1-ih0+im1-im0)),
		"apis.invoke_evictions": float64(cache.Evictions() - ie0),

		"durable.log_turn_ms":      perOp("durable.log_turn"),
		"durable.persist_graph_ms": perOp("durable.persist_graph"),
		"durable.calls":            calls("durable.log_turn", "durable.persist_graph", "durable.log_job"),

		"jobs.submit_ms":         perOp("jobs.submit"),
		"jobs.queue_wait_p50_ms": median(lc.queueWaitMS),
		"jobs.run_p50_ms":        median(lc.jobRunMS),
		"jobs.calls":             calls("jobs.submit"),

		"tenant.admit_ns": tenantAdmitNS(rp.lp.tenants),
		"tenant.calls":    calls("tenant.admit"),
	}

	out := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, t.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), data, 0o644)
}

// tenantAdmitNS times Resolve+Acquire+release in a tight loop: a single
// admission is shorter than the clock reads a span brackets it with.
func tenantAdmitNS(reg *tenant.Registry) float64 {
	if reg == nil {
		return 0
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		tn, err := reg.Resolve(tenantKeys[i%clients])
		if err != nil {
			return 0
		}
		release, _ := reg.Acquire(tn)
		release()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// clusterHopMS is what one cluster.Router hop adds to a request: the mean
// of sequential single-client retrievals through a router fronting one
// backend, minus the mean of the same requests sent to the backend
// directly, both over loopback.
func clusterHopMS(backendHandler http.Handler) (float64, error) {
	backend := httptest.NewServer(backendHandler)
	defer backend.Close()
	reg := metrics.NewRegistry()
	pool, err := cluster.NewPool([]string{backend.URL}, cluster.Policy{}, reg)
	if err != nil {
		return 0, err
	}
	cluster.NewProber(pool, time.Hour, 0).ProbeOnce() // a fresh backend is down until probed
	front := httptest.NewServer(cluster.NewRouter(pool, cluster.Options{Registry: reg}).Handler())
	defer front.Close()

	body := mustJSON(server.RetrieveRequest{Queries: core.SuggestedQuestions(graph.KindSocial), K: retrieveK})
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	probe := func(base string) (float64, error) {
		const n = 100
		var total time.Duration
		for i := 0; i < n+10; i++ { // the first 10 open and warm the connections
			start := time.Now()
			resp, err := hc.Post(base+"/v1/retrieve", "application/json", bytes.NewReader(body))
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the timing matters
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("cluster hop probe: status %d from %s", resp.StatusCode, base)
			}
			if i >= 10 {
				total += time.Since(start)
			}
		}
		return ms(total) / n, nil
	}
	direct, err := probe(backend.URL)
	if err != nil {
		return 0, err
	}
	via, err := probe(front.URL)
	if err != nil {
		return 0, err
	}
	return via - direct, nil
}
