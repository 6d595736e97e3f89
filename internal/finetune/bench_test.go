package finetune

import (
	"fmt"
	"math/rand"
	"testing"

	"chatgraph/internal/chain"
)

// BenchmarkTrain is the daemon's boot-time training (core.NewEngine's
// defaults: 400 generated examples, 2 refinement epochs) with and without
// rollouts.
func BenchmarkTrain(b *testing.B) {
	v := vocab()
	ds := GenerateDataset(400, rand.New(rand.NewSource(42)))
	for _, r := range []int{0, 4} {
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Train(v, ds, TrainConfig{Epochs: 2, Search: SearchConfig{Rollouts: r}, Seed: 42})
			}
		})
	}
}

var sinkChain chain.Chain

// BenchmarkDecode is one greedy generation on the boot-trained model — what
// SimClient.Complete pays per chat.
func BenchmarkDecode(b *testing.B) {
	ds := GenerateDataset(400, rand.New(rand.NewSource(42)))
	m := Train(vocab(), ds, TrainConfig{Epochs: 2, Search: SearchConfig{Rollouts: 4}, Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := ds[i%len(ds)]
		sinkChain = m.Decode(ex.Question, ex.Kind, 8)
	}
}
