package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float32) bool { return math.Abs(float64(a-b)) < 1e-5 }

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNormAndL2(t *testing.T) {
	if got := Norm([]float32{3, 4}); !almost(got, 5) {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := L2Squared([]float32{0, 0}, []float32{3, 4}); !almost(got, 25) {
		t.Fatalf("L2Squared = %v, want 25", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float32{1, 0}, []float32{1, 0}); !almost(got, 1) {
		t.Fatalf("parallel cosine = %v", got)
	}
	if got := Cosine([]float32{1, 0}, []float32{0, 1}); !almost(got, 0) {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := Cosine([]float32{0, 0}, []float32{1, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float32{3, 4})
	if !almost(Norm(v), 1) {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize([]float32{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector changed by Normalize")
	}
}

func TestAddScaleClone(t *testing.T) {
	a := []float32{1, 2}
	b := Clone(a)
	Add(a, []float32{1, 1})
	if a[0] != 2 || a[1] != 3 {
		t.Fatalf("Add result %v", a)
	}
	if b[0] != 1 || b[1] != 2 {
		t.Fatal("Clone shares storage")
	}
	Scale(a, 2)
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("Scale result %v", a)
	}
}

// Property: triangle inequality holds for L2 on random vectors.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []float32 {
			v := make([]float32, 8)
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		l2 := func(x, y []float32) float64 { return math.Sqrt(float64(L2Squared(x, y))) }
		return l2(a, c) <= l2(a, b)+l2(b, c)+1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine similarity is within [-1, 1].
func TestQuickCosineRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := make([]float32, 16), make([]float32, 16)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		c := Cosine(a, b)
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
