// Package vecmath provides the small set of dense-vector operations used by
// the embedding and ANN-search modules. All functions treat vectors as plain
// []float32 slices and assume (but, where cheap, verify) equal lengths.
package vecmath

import (
	"fmt"
	"math"
)

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float32) float32 {
	var s float32
	for _, v := range a {
		s += v * v
	}
	return float32(math.Sqrt(float64(s)))
}

// Normalize scales a to unit L2 norm in place and returns it. A zero vector
// is returned unchanged.
func Normalize(a []float32) []float32 {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// Add accumulates b into a in place. It panics if lengths differ.
func Add(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: add of mismatched lengths %d and %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Scale multiplies every component of a by k in place.
func Scale(a []float32, k float32) {
	for i := range a {
		a[i] *= k
	}
}
