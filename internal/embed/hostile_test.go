package embed_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"chatgraph/internal/ann"
	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/embed"
	"chatgraph/internal/server"
)

// TestHostileRetrieveLinear sends POST /v1/retrieve the largest query its
// 1 MiB body cap admits — about 150 k distinct tokens — and holds the reply
// to the map-based oracle twice: the same hits, from an index rebuilt here
// with oracleEmbed and the dense scan, and no more than a small multiple of
// the oracle's own time for the same request, measured in this run.
func TestHostileRetrieveLinear(t *testing.T) {
	const k = 5
	query := embed.HostileText(150_000)
	body, err := json.Marshal(server.RetrieveRequest{Queries: []string{query}, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 1<<20 || len(body) < 700<<10 {
		t.Fatalf("fixture body is %d bytes, want just under the 1 MiB cap", len(body))
	}
	reg := apis.Default(nil)
	eng, err := core.NewEngine(core.Config{Registry: reg, TrainSeed: 1, TrainExamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	handler := server.New(eng, server.Options{}).Handler()

	// The oracle's side: decode, embed through the maps, scan densely.
	var corpus, names []string
	for _, a := range reg.All() {
		corpus = append(corpus, a.Name+" "+a.Description)
		names = append(names, a.Name)
	}
	emb := embed.NewHashing(512)
	emb.Fit(corpus)
	vecs := make([][]float32, len(corpus))
	for i, doc := range corpus {
		vecs[i] = embed.OracleEmbed(emb, doc)
	}
	flat := ann.NewBruteForce(vecs)
	start := time.Now()
	var req server.RetrieveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	want := flat.Search(embed.OracleEmbed(emb, req.Queries[0]), k)
	oracle := time.Since(start)
	slices.SortStableFunc(want, func(a, b ann.Result) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(names[a.ID], names[b.ID]))
	})

	// Best of three, so one scheduling stall does not decide the ratio.
	var rec *httptest.ResponseRecorder
	served := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		rec = httptest.NewRecorder()
		start = time.Now()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/retrieve", bytes.NewReader(body)))
		served = min(served, time.Since(start))
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var out server.RetrieveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0]) != k {
		t.Fatalf("reply shape %+v", out.Results)
	}
	for j, hit := range out.Results[0] {
		// 150 k terms over 512 buckets: every bucket sums hundreds of terms
		// in an order the oracle leaves to its maps, so distances agree to
		// rounding, not to the bit.
		if d := hit.Distance - want[j].Dist; hit.Name != names[want[j].ID] || d < -1e-4 || d > 1e-4 {
			t.Fatalf("hit %d = %s at %v, oracle %s at %v", j, hit.Name, hit.Distance, names[want[j].ID], want[j].Dist)
		}
	}
	const slack = 4
	if served > slack*oracle {
		t.Fatalf("served in %v, oracle %v: more than %d× the oracle", served, oracle, slack)
	}
	t.Logf("served in %v, oracle %v", served, oracle)
}
