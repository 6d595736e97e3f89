package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as a number (choosing-metrics §1): p95 therefore needs ≥ 200
// samples, which is where the ≥ 240 paced requests per workload come from.
const minBeyond = 10

// quantile returns the q-quantile (nearest rank) of samples and how many
// samples lie strictly beyond that rank. samples need not be sorted and is
// not modified. An empty input yields (0, 0).
func quantile(samples []float64, q float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s[rank], n - 1 - rank
}

func median(samples []float64) float64 {
	v, _ := quantile(samples, 0.5)
	return v
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b with 0/0 = 0, for shares and hit ratios of layers that saw
// no calls on a workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quietSlices is how many equal consecutive slices quietHalf cuts a phase's
// samples into.
const quietSlices = 10

// quietHalf cuts samples, in the order given, into quietSlices equal
// consecutive slices and returns the samples of the half of the slices whose
// medians are lowest, pooled. The reference box is a small VM on a shared
// host whose speed sags by 10-30 % for seconds at a time; a sag lands in some
// slices and only ever adds latency, so the quieter half of a phase is what
// the program did when the host let it run, and it repeats from run to run
// where the whole phase does not. Fewer than two samples per slice are
// returned as they are.
func quietHalf(samples []float64) []float64 {
	n := len(samples)
	if n < 2*quietSlices {
		return samples
	}
	slices := make([][]float64, quietSlices)
	for i := range slices {
		slices[i] = samples[i*n/quietSlices : (i+1)*n/quietSlices]
	}
	sort.SliceStable(slices, func(a, b int) bool { return median(slices[a]) < median(slices[b]) })
	var pooled []float64
	for _, s := range slices[:quietSlices/2] {
		pooled = append(pooled, s...)
	}
	return pooled
}
