// Package vecmath provides the small set of dense-vector operations used by
// the embedding and ANN-search modules. All functions treat vectors as plain
// []float32 slices and assume (but, where cheap, verify) equal lengths.
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float32) float32 {
	var s float32
	for _, v := range a {
		s += v * v
	}
	return float32(math.Sqrt(float64(s)))
}

// L2Squared returns the squared Euclidean distance between a and b, the
// direct (subtract-and-square) form; index routing compares squared
// distances and pays a sqrt only on the results it reports.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: l2sq of mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cosine returns the cosine similarity of a and b in [-1, 1]. Zero vectors
// have similarity 0 with everything.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
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

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	c := make([]float32, len(a))
	copy(c, a)
	return c
}
