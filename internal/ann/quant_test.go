package ann

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// quantFixtures returns the two dataset shapes the quantized tier is held
// to: isotropic random vectors and clustered vectors (the regime retrieval
// embeddings live in, where per-row quantization ranges differ a lot).
func quantFixtures() map[string]struct{ vecs, queries [][]float32 } {
	rngR := rand.New(rand.NewSource(41))
	rngC := rand.New(rand.NewSource(42))
	return map[string]struct{ vecs, queries [][]float32 }{
		"random":    {RandomVectors(400, 32, rngR), RandomVectors(50, 32, rngR)},
		"clustered": {ClusteredVectors(400, 32, 8, 0.2, rngC), ClusteredVectors(50, 32, 8, 0.2, rngC)},
	}
}

// TestQuantRecallParity: at the default rerank factor, the quantized
// two-stage search of both indexes that carry the tier must keep recall@10
// ≥ 0.95 against its own f32 answers on both fixture shapes. This is the acceptance gate for the
// quantized tier: ÷4 scanned bytes at (near-)equal quality.
func TestQuantRecallParity(t *testing.T) {
	for shape, fx := range quantFixtures() {
		vecs, queries := fx.vecs, fx.queries
		n := len(vecs)
		quant := QuantConfig{Enabled: true}
		pairs := map[string][2]Index{}
		pairs["bruteforce"] = [2]Index{NewBruteForce(vecs), NewBruteForceQuant(vecs, quant)}
		{
			f32, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05, Beam: n})
			if err != nil {
				t.Fatal(err)
			}
			q8, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05, Beam: n, Quant: quant})
			if err != nil {
				t.Fatal(err)
			}
			pairs["taumg"] = [2]Index{f32, q8}
		}
		for name, pair := range pairs {
			f32, q8 := pair[0], pair[1]
			total := 0.0
			for _, q := range queries {
				total += Recall(q8.Search(q, 10), f32.Search(q, 10))
			}
			if avg := total / float64(len(queries)); avg < 0.95 {
				t.Errorf("%s/%s: quantized recall@10 = %.3f vs f32, want ≥ 0.95", shape, name, avg)
			}
		}
	}
}

// TestQuantRerankDistancesExact: reranked hits must carry exact f32
// distances — quantization may only change which candidates reach stage 2,
// never the reported distance of a survivor.
func TestQuantRerankDistancesExact(t *testing.T) {
	fx := quantFixtures()["clustered"]
	bf := NewBruteForce(fx.vecs)
	q8 := NewBruteForceQuant(fx.vecs, QuantConfig{Enabled: true})
	for _, q := range fx.queries {
		exact := map[int]float32{}
		for _, r := range bf.Search(q, len(fx.vecs)) {
			exact[r.ID] = r.Dist
		}
		for _, r := range q8.Search(q, 10) {
			if r.Dist != exact[r.ID] {
				t.Fatalf("hit %d dist %v, exact %v", r.ID, r.Dist, exact[r.ID])
			}
		}
	}
}

// TestQuantRerankFactorFullIsExact: with the rerank window opened to n the
// two-stage scan degenerates to exact search, so results must be identical
// to the f32 index — the end-to-end correctness anchor for both stages. A
// factor whose product with k overflows int must saturate at n the same way
// (it used to wrap negative and panic on the empty candidate heap).
func TestQuantRerankFactorFullIsExact(t *testing.T) {
	fx := quantFixtures()["random"]
	n := len(fx.vecs)
	bf := NewBruteForce(fx.vecs)
	for _, factor := range []int{n, 1 << 62, math.MaxInt} {
		quant := QuantConfig{Enabled: true, RerankFactor: factor}
		taumg, err := NewTauMG(fx.vecs, TauMGConfig{Tau: 0.05, Quant: quant})
		if err != nil {
			t.Fatal(err)
		}
		for name, q8 := range map[string]Index{"bruteforce": NewBruteForceQuant(fx.vecs, quant), "taumg": taumg} {
			for _, q := range fx.queries {
				if got, want := q8.Search(q, 10), bf.Search(q, 10); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, rerank factor %d: search diverged: got %+v want %+v", name, factor, got, want)
				}
			}
		}
	}
}

// TestQuantDisabledIsSameIndex: QuantConfig zero value must leave every
// constructor byte-for-byte on the f32 path.
func TestQuantDisabledIsSameIndex(t *testing.T) {
	fx := quantFixtures()["random"]
	bf := NewBruteForce(fx.vecs)
	off := NewBruteForceQuant(fx.vecs, QuantConfig{})
	for _, q := range fx.queries {
		if got, want := off.Search(q, 10), bf.Search(q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("disabled quant diverged: got %+v want %+v", got, want)
		}
	}
}

// TestQuantSearchAllocs extends the steady-state allocation contract to the
// quantized path: the quantized query codes and the rerank staging buffer
// recycle through the scratch pool, so two-stage search allocates only its
// result slice, same as f32.
func TestQuantSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fx := quantFixtures()["clustered"]
	quant := QuantConfig{Enabled: true}
	bf := NewBruteForceQuant(fx.vecs, quant)
	taumg, err := NewTauMG(fx.vecs, TauMGConfig{Tau: 0.05, Quant: quant})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"bruteforce-quant": func() { bf.Search(fx.queries[0], 10) },
		"taumg-quant":      func() { taumg.Search(fx.queries[0], 10) },
	} {
		fn() // warm the pool
		if allocs := testing.AllocsPerRun(100, fn); allocs > 2.0 {
			t.Errorf("%s: %.1f allocs/op, want ≤ 2", name, allocs)
		}
	}
}

// BenchmarkQuantSearch is the E15 end-to-end search row: single-query
// top-10 over the same index with the f32 scan vs the int8 two-stage scan.
func BenchmarkQuantSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	vecs := RandomVectors(4096, 512, rng)
	query := RandomVectors(1, 512, rng)[0]
	bf := NewBruteForce(vecs)
	q8 := NewBruteForceQuant(vecs, QuantConfig{Enabled: true})
	b.Run("bruteforce-f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf.Search(query, 10)
		}
	})
	b.Run("bruteforce-int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q8.Search(query, 10)
		}
	})
	taumg, err := NewTauMG(vecs[:2048], TauMGConfig{Tau: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	taumgQ, err := NewTauMG(vecs[:2048], TauMGConfig{Tau: 0.05, Quant: QuantConfig{Enabled: true}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("taumg-f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			taumg.Search(query, 10)
		}
	})
	b.Run("taumg-int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			taumgQ.Search(query, 10)
		}
	})
}
