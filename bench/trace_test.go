package main

import "testing"

// TestTraceReplayAgreesWithHandler builds the daemon's engine in process
// (one ~3.5 s model training shared by all four workloads) and checks, on a
// few requests of each workload, that the layer-by-layer replay reaches the
// handler's answers and that each layer is exercised exactly where the
// workload table says it is.
func TestTraceReplayAgreesWithHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the chain-generation model")
	}
	plain, err := newEngine(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			w.prefill = 0 // ageing the store is not what is tested
			ops := w.generate(5, 16)
			eng := plain
			if w.quantize {
				if eng, err = newEngine(plain.Model(), true); err != nil {
					t.Fatal(err)
				}
			}
			if err := newOracle(eng).fill(ops); err != nil {
				t.Fatal(err)
			}
			rp, err := newReplay(w, plain.Model(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer rp.close()
			tr := newTracer()
			var lc layerCounts
			if err := rp.run(tr, &lc, ops); err != nil {
				t.Fatal(err)
			}

			calls := func(name string) int { _, n := tr.total(name); return n }
			if got := calls("request"); got != len(ops) {
				t.Errorf("%d request spans for %d ops", got, len(ops))
			}
			chats := 0
			for _, o := range ops {
				if o.kind != opRetrieve {
					chats++
				}
			}
			for _, name := range []string{"graph.parse", "graphstore.intern", "llm.build_prompt", "seq.sequentialize", "executor.run"} {
				if got := calls(name); got != chats {
					t.Errorf("%s: %d spans, want one per chat/job op (%d)", name, got, chats)
				}
			}
			if got := calls("retrieve.batch"); got != len(ops)-chats {
				t.Errorf("retrieve.batch: %d spans, want %d", got, len(ops)-chats)
			}
			production := calls("durable.persist_graph") + calls("durable.log_turn") + calls("jobs.submit") + calls("tenant.admit")
			if w.durable && (calls("durable.persist_graph") != chats || calls("tenant.admit") != len(ops)) {
				t.Errorf("production config: persist_graph=%d (want %d) tenant.admit=%d (want %d)",
					calls("durable.persist_graph"), chats, calls("tenant.admit"), len(ops))
			}
			if !w.durable && production != 0 {
				t.Errorf("durable/jobs/tenant layers saw %d calls on a workload that bypasses them", production)
			}
			for id, s := range tr.spans {
				if s.EndNS < s.StartNS {
					t.Errorf("span %d (%s) never ended", id, s.Name)
				}
				if s.Name == "seq.sequentialize" && (s.Parent < 0 || tr.spans[s.Parent].Name != "llm.build_prompt" || tr.spans[s.Parent].Request != s.Request) {
					t.Errorf("span %d: seq.sequentialize must hang under its request's llm.build_prompt", id)
				}
			}
			if chats > 0 && (lc.paths == 0 || lc.rendered == 0 || lc.rendered > lc.paths) {
				t.Errorf("sequentializer counts: %d paths generated, %d rendered", lc.paths, lc.rendered)
			}
		})
	}
}
