package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"chatgraph/internal/core"
	"chatgraph/internal/graph"
	"chatgraph/internal/graphstore"
	"chatgraph/internal/server"
)

// opKind is what one generated operation does on the wire.
type opKind uint8

const (
	opChat       opKind = iota // POST /v1/sessions/{id}/chat
	opChatStream               // the same with ?stream=1 (NDJSON)
	opRetrieve                 // POST /v1/retrieve
	opJob                      // POST /v1/jobs, then GET /v1/jobs/{id}?stream=1 to terminal
)

func (k opKind) String() string {
	return [...]string{"chat", "chat_stream", "retrieve", "job"}[k]
}

// op is one generated operation. Everything the daemon will see is in body
// and kind; the rest is what the oracle and the traced run need.
type op struct {
	kind     opKind
	body     []byte
	question string
	// graph is the raw graph JSON embedded in body (nil for retrieve).
	graph []byte
	// pair identifies a pooled (question, graph) combination so the oracle
	// computes each once; "" marks a graph that is never sent twice.
	pair string
	// wantKind is the graph kind the generator intended.
	wantKind string
	queries  []string
	// oracle marks the op for the byte-for-byte comparison with the
	// in-process engine: every pooled pair, and a seeded 1-in-16 sample of
	// never-repeated graphs.
	oracle   bool
	wantChat *chatWant
	wantHits [][]server.RetrieveHit
	// due is the op's arrival time as an offset from the paced phase start.
	due time.Duration
}

type chatWant struct{ chain, answer string }

// workload is one named traffic mix plus the daemon configuration it runs
// against. The table in workloads() is the whole definition; README.md
// records why each exists.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json carries.
	why string
	// pacedRate is the open-loop arrival rate in requests per second.
	pacedRate float64
	// maxRate bounds how many ops are pre-generated for the closed-loop
	// phases (ops/s this box cannot exceed); a phase that runs out ends early.
	maxRate float64
	// durable/tenants/quantize select the "production config" daemon flags
	// and the matching in-process server options of the traced run.
	durable, tenants, quantize bool
	// prefill is how many never-seen-again graphs the traced run interns
	// before replaying, so a workload that never repeats a graph is traced
	// at its steady state: a full store that evicts on every insert.
	prefill int
	// newGen seeds the workload's generator and returns its draw function.
	newGen func(rng *rand.Rand) func() op
}

const retrieveK = 5

func workloads() []workload {
	return []workload{
		{
			name:      "chat_small_hot",
			why:       "12 small graphs re-uploaded forever: caches hit, graph work is ~0, so server, transport and JSON are the request",
			pacedRate: 300, maxRate: 3000,
			newGen: genSmallHot,
		},
		{
			name:      "chat_large_cold",
			why:       "every chat a never-seen 200-300 node graph: parse, hash, intern-miss, seq/prompt and cold kernels dominate",
			pacedRate: 24, maxRate: 64,
			prefill: graphstore.DefaultCapacity,
			newGen:  genLargeCold,
		},
		{
			name:      "retrieve_batch",
			why:       "16-query retrieval batches, no graph at all: the only mix where embed+ann+retrieve is a visible share",
			pacedRate: 300, maxRate: 5000,
			newGen: genRetrieveBatch,
		},
		{
			name:      "mixed_durable",
			why:       "WAL+jobs+tenants+int8 daemon under chat/retrieve/job mix with zipf graph reuse: partial hit ratios, durable path",
			pacedRate: 60, maxRate: 1500,
			durable: true, tenants: true, quantize: true,
			newGen: genMixedDurable,
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Tenant keys of the mixed_durable daemon: one per load-generating client.
var tenantKeys = []string{"bench-key-gold", "bench-key-bronze"}

const tenantsFile = `{"tenants":[` +
	`{"name":"gold","keys":["bench-key-gold"],"weight":3},` +
	`{"name":"bronze","keys":["bench-key-bronze"],"weight":1}]}`

// daemonFlags are the flags a workload adds to the common
// "-seed 42 -molecules 200": dataDir is a fresh directory for this boot,
// tenantsPath the tenants file of this run.
func (w workload) daemonFlags(dataDir, tenantsPath string) []string {
	var f []string
	if w.durable {
		f = append(f, "-data-dir", dataDir, "-wal-sync", "interval")
	}
	if w.quantize {
		f = append(f, "-quantize")
	}
	if w.tenants {
		f = append(f, "-job-workers", "2", "-job-queue", "64", "-max-inflight", "64", "-tenants", tenantsPath)
	}
	return f
}

// generate returns n ops of w for seed: the same (w, seed, n) always yields
// the same bytes, and the daemon is handed nothing else.
func (w workload) generate(seed int64, n int) []op {
	next := w.newGen(rand.New(rand.NewSource(seed)))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

// schedule stamps ops with an open-loop arrival schedule at rate req/s: one
// arrival per interval, each displaced by a seeded ±25 % jitter. (A Poisson
// schedule would add queueing noise to p95 that says nothing about the
// program; the schedule is still open loop — it never waits for a reply.)
func schedule(ops []op, rate float64, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	interval := float64(time.Second) / rate
	for i := range ops {
		ops[i].due = time.Duration((float64(i) + 0.25 + (rng.Float64()-0.5)/2) * interval)
	}
}

// pooledGraph is one member of a workload's reusable graph pool.
type pooledGraph struct {
	json []byte
	kind graph.Kind
	// bodies caches the chat body per question index.
	bodies map[int][]byte
}

func newPooled(g *graph.Graph, kind graph.Kind) *pooledGraph {
	return &pooledGraph{json: mustJSON(g), kind: kind, bodies: map[int][]byte{}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal generated input: %v", err)) // generated inputs always marshal
	}
	return b
}

func chatBody(question string, graphJSON []byte) []byte {
	return mustJSON(server.ChatRequest{Question: question, Graph: graphJSON})
}

// chatOp draws a question for pool[gi] and returns the pooled chat op.
func chatOp(rng *rand.Rand, pool []*pooledGraph, gi int, kind opKind) op {
	pg := pool[gi]
	qs := core.SuggestedQuestions(pg.kind)
	qi := rng.Intn(len(qs))
	body, ok := pg.bodies[qi]
	if !ok {
		body = chatBody(qs[qi], pg.json)
		pg.bodies[qi] = body
	}
	return op{
		kind: kind, body: body, question: qs[qi], graph: pg.json,
		pair: fmt.Sprintf("g%d/q%d", gi, qi), wantKind: pg.kind.String(), oracle: true,
	}
}

func genSmallHot(rng *rand.Rand) func() op {
	pool := make([]*pooledGraph, 12)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = newPooled(graph.Molecule(20+rng.Intn(21), rng), graph.KindMolecule)
		} else {
			pool[i] = newPooled(graph.PlantedCommunities(2, 10, .5, .05, rng), graph.KindSocial)
		}
	}
	return func() op { return chatOp(rng, pool, rng.Intn(len(pool)), opChat) }
}

func genLargeCold(rng *rand.Rand) func() op {
	social := core.SuggestedQuestions(graph.KindSocial)
	i := 0
	return func() op {
		i++
		o := op{kind: opChat, oracle: rng.Intn(16) == 0}
		if i%2 == 1 {
			o.question, o.wantKind = social[rng.Intn(len(social))], graph.KindSocial.String()
			o.graph = mustJSON(graph.PlantedCommunities(4, 50, .3, .02, rng))
		} else {
			// "Clean G" generates a chain ending in graph.apply_edits, so the
			// executor deep-clones the interned graph before running it.
			o.question, o.wantKind = "Clean G", graph.KindKnowledge.String()
			o.graph = mustJSON(graph.KnowledgeGraph(300, 900, rng))
		}
		o.body = chatBody(o.question, o.graph)
		return o
	}
}

// queryPool builds n retrieval query texts: the suggested questions of
// every graph kind, then seeded pairings of them, so texts differ in length
// and vocabulary the way free-form prompts do.
func queryPool(rng *rand.Rand, n int) []string {
	var base []string
	seen := map[string]bool{}
	for _, k := range []graph.Kind{graph.KindSocial, graph.KindMolecule, graph.KindKnowledge, graph.KindUnknown} {
		for _, q := range core.SuggestedQuestions(k) {
			if !seen[q] {
				seen[q] = true
				base = append(base, q)
			}
		}
	}
	pool := append([]string(nil), base...)
	for len(pool) < n {
		q := base[rng.Intn(len(base))] + " and " + base[rng.Intn(len(base))]
		if !seen[q] {
			seen[q] = true
			pool = append(pool, q)
		}
	}
	return pool[:n]
}

func retrieveOp(rng *rand.Rand, pool []string, nq int) op {
	qs := make([]string, nq)
	for i := range qs {
		qs[i] = pool[rng.Intn(len(pool))]
	}
	return op{
		kind: opRetrieve, queries: qs, oracle: true,
		body: mustJSON(server.RetrieveRequest{Queries: qs, K: retrieveK}),
	}
}

func genRetrieveBatch(rng *rand.Rand) func() op {
	pool := queryPool(rng, 64)
	return func() op { return retrieveOp(rng, pool, 16) }
}

func genMixedDurable(rng *rand.Rand) func() op {
	// A 64-graph pool in three kinds, each reused by its own zipf(1.2), and
	// the kind drawn with fixed weights. One zipf over a mixed pool would
	// let the seed decide whether the hottest graph is a 1 ms molecule or a
	// 7 ms social graph, and the workload's cost with it. The weights put
	// the mix's median well inside the cheap ops (25 % retrieve + 45 %
	// molecule) and its p95 inside the social and knowledge-graph ops (15 %
	// each): a quantile on the boundary between two modes flips with the seed.
	var pool []*pooledGraph
	kinds := []struct {
		weight float64
		first  int
		zipf   *rand.Zipf
	}{{weight: 0.6}, {weight: 0.2}, {weight: 0.2}}
	for k, n := range []int{24, 20, 20} {
		kinds[k].first = len(pool)
		kinds[k].zipf = rand.NewZipf(rng, 1.2, 1, uint64(n-1))
		for i := 0; i < n; i++ {
			switch k {
			case 0:
				pool = append(pool, newPooled(graph.Molecule(20+rng.Intn(21), rng), graph.KindMolecule))
			case 1:
				pool = append(pool, newPooled(graph.PlantedCommunities(3, 30, .3, .03, rng), graph.KindSocial))
			default:
				pool = append(pool, newPooled(graph.KnowledgeGraph(120, 360, rng), graph.KindKnowledge))
			}
		}
	}
	pick := func() int {
		u := rng.Float64()
		for _, k := range kinds {
			if u -= k.weight; u < 0 {
				return k.first + int(k.zipf.Uint64())
			}
		}
		return kinds[2].first + int(kinds[2].zipf.Uint64())
	}
	queries := queryPool(rng, 64)
	return func() op {
		switch u := rng.Float64(); {
		case u < 0.40:
			return chatOp(rng, pool, pick(), opChat)
		case u < 0.50:
			return chatOp(rng, pool, pick(), opChatStream)
		case u < 0.75:
			return retrieveOp(rng, queries, 4)
		default:
			return chatOp(rng, pool, pick(), opJob)
		}
	}
}
