package moldb

import (
	"math/rand"
	"testing"

	"chatgraph/internal/graph"
)

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Molecule(40, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newFingerprint(g, 3)
	}
}

// benchSearch times one top-2 search (similarity.search's default) over n
// molecules seeded the way the daemon seeds its database.
func benchSearch(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(2))
	db := New(3)
	for i := 0; i < n; i++ {
		db.Add("m", graph.Molecule(8+rng.Intn(20), rng))
	}
	q := graph.Molecule(16, rng)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Search(q, 2)
	}
}

// BenchmarkSearch is at the daemon's -molecules default.
func BenchmarkSearch(b *testing.B)   { benchSearch(b, 200) }
func BenchmarkSearch1k(b *testing.B) { benchSearch(b, 1000) }

func BenchmarkSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := New(3)
	x, y := graph.Molecule(16, rng), graph.Molecule(20, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Similarity(x, y)
	}
}
