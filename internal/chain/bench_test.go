package chain

import (
	"math/rand"
	"testing"
)

func randomChain(rng *rand.Rand, n int) Chain {
	apis := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	c := make(Chain, n)
	for i := range c {
		c[i] = Step{API: apis[rng.Intn(len(apis))]}
	}
	return c
}

func BenchmarkEditDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomChain(rng, 8), randomChain(rng, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EditDistance(x, y)
	}
}

func BenchmarkOptimalMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := randomChain(rng, 8), randomChain(rng, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OptimalMatching(x, y)
	}
}

func BenchmarkLoss(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := randomChain(rng, 6), randomChain(rng, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Loss(x, y, 0.5)
	}
}

// BenchmarkMinLoss is the rollout search's inner call: one generated chain
// against a question's two equivalent four-step truths.
func BenchmarkMinLoss(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c, truths := randomChain(rng, 5), []Chain{randomChain(rng, 4), randomChain(rng, 4)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinLoss(c, truths, 0.5)
	}
}

func BenchmarkParse(b *testing.B) {
	text := "graph.classify -> community.detect(max_iters=20) -> report.compose(style=brief)"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
