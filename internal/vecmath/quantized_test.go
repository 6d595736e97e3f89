package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func randomRows(n, d int, rng *rand.Rand) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		rows[i] = v
	}
	return rows
}

func mustFromRows(t testing.TB, rows [][]float32) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dequantize reconstructs row i of q into dst through the row's affine map,
// for bounding reconstruction error.
func dequantize(q *QuantizedMatrix, i int, dst []float32) {
	s, o := q.scales[i], q.offsets[i]
	for j, c := range q.Row(i) {
		dst[j] = o + s*float32(c)
	}
}

// TestQuantizeRoundTrip: dequantized rows must sit within half a
// quantization step of the originals, component-wise.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randomRows(50, 32, rng)
	m := mustFromRows(t, rows)
	q := Quantize(m)
	if q.Rows() != m.Rows() || q.Dim() != m.Dim() {
		t.Fatalf("shape (%d,%d) != (%d,%d)", q.Rows(), q.Dim(), m.Rows(), m.Dim())
	}
	dst := make([]float32, m.Dim())
	for i := 0; i < m.Rows(); i++ {
		dequantize(q, i, dst)
		lo, hi := rows[i][0], rows[i][0]
		for _, x := range rows[i] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		step := float64(hi-lo) / quantRange
		for j, x := range rows[i] {
			if err := math.Abs(float64(dst[j] - x)); err > step/2+1e-6 {
				t.Fatalf("row %d comp %d: dequant err %g > half step %g", i, j, err, step/2)
			}
		}
	}
}

// TestQuantizeConstantRow: a zero-range row must quantize to scale 0 and
// reconstruct exactly.
func TestQuantizeConstantRow(t *testing.T) {
	m := mustFromRows(t, [][]float32{{3, 3, 3, 3}, {0, 0, 0, 0}})
	q := Quantize(m)
	dst := make([]float32, 4)
	for i := 0; i < 2; i++ {
		dequantize(q, i, dst)
		for j, x := range dst {
			if x != m.Row(i)[j] {
				t.Fatalf("row %d comp %d: %g != %g", i, j, x, m.Row(i)[j])
			}
		}
	}
	var qq QuantizedQuery
	q.QuantizeQuery([]float32{1, 2, 3, 4}, &qq)
	want := L2Squared([]float32{1, 2, 3, 4}, []float32{3, 3, 3, 3})
	if got := q.L2SquaredTo(&qq, 0); math.Abs(float64(got-want)) > 0.05 {
		t.Fatalf("constant-row distance %g, want ≈ %g", got, want)
	}
}

// TestQuantizedDistanceAccuracy: the reconstructed squared distances must
// track the exact f32 distances to within the quantization error bound, and
// must be exactly equal to the distance between the dequantized points (the
// metric property clamping relies on).
func TestQuantizedDistanceAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randomRows(200, 48, rng)
	m := mustFromRows(t, rows)
	q := Quantize(m)
	var qq QuantizedQuery
	dq := make([]float32, m.Dim())
	dr := make([]float32, m.Dim())
	for trial := 0; trial < 20; trial++ {
		query := randomRows(1, 48, rng)[0]
		q.QuantizeQuery(query, &qq)
		// Reconstruct the dequantized query once.
		for j, c := range qq.Codes {
			dq[j] = qq.offset + qq.scale*float32(c)
		}
		for i := 0; i < m.Rows(); i++ {
			got := q.L2SquaredTo(&qq, i)
			dequantize(q, i, dr)
			wantDeq := L2Squared(dq, dr)
			if math.Abs(float64(got-wantDeq)) > 1e-2*float64(wantDeq)+1e-3 {
				t.Fatalf("row %d: fused dist %g != dequantized dist %g", i, got, wantDeq)
			}
			exact := m.L2SquaredTo(query, SquaredNorm(query), i)
			// Error bound: loose (quantization noise scales with the point
			// norms) but tight enough to catch a broken cross term.
			if math.Abs(float64(got-exact)) > 0.05*float64(exact)+0.5 {
				t.Fatalf("row %d: quantized dist %g too far from exact %g", i, got, exact)
			}
		}
	}
}

// TestQuantizedKernelsMatchScalar: the tiled kernel must agree with the
// single-distance form, and dotInt8's unrolled lanes must match a
// scalar accumulate on lengths around the unroll boundary.
func TestQuantizedKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 7, 8, 9, 15, 16, 17, 64} {
		rows := randomRows(30, d, rng)
		m := mustFromRows(t, rows)
		q := Quantize(m)
		var qq QuantizedQuery
		q.QuantizeQuery(rows[0], &qq)
		dst := make([]float32, q.Rows())
		q.L2SquaredRange(&qq, 0, q.Rows(), dst)
		for i := 0; i < q.Rows(); i++ {
			if want := q.L2SquaredTo(&qq, i); dst[i] != want {
				t.Fatalf("d=%d row %d: range %g single %g", d, i, dst[i], want)
			}
		}
		// dotInt8 vs scalar reference.
		a, b := q.Row(0), q.Row(1)
		var ref int32
		for j := range a {
			ref += int32(a[j]) * int32(b[j])
		}
		if got := dotInt8(a, b); got != ref {
			t.Fatalf("d=%d: dotInt8 %d != scalar %d", d, got, ref)
		}
		if got := dotInt8Generic(a, b); got != ref {
			t.Fatalf("d=%d: dotInt8Generic %d != scalar %d", d, got, ref)
		}
	}
}

// TestQuantizedBytes: the quantized store must be at least 3.8× smaller
// than the f32 matrix at retrieval dimensionality (the ÷4 claim minus
// per-row metadata).
func TestQuantizedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mustFromRows(t, randomRows(1000, 512, rng))
	q := Quantize(m)
	ratio := float64(m.Bytes()) / float64(q.Bytes())
	if ratio < 3.8 {
		t.Fatalf("memory ratio %.2f, want ≥ 3.8 (f32 %d B, int8 %d B)", ratio, m.Bytes(), q.Bytes())
	}
}

// TestQuantizeQueryReusesBuffer: repeated query quantization through one
// QuantizedQuery must not allocate once the code buffer is grown.
func TestQuantizeQueryReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := mustFromRows(t, randomRows(10, 64, rng))
	q := Quantize(m)
	query := randomRows(1, 64, rng)[0]
	var qq QuantizedQuery
	q.QuantizeQuery(query, &qq)
	if allocs := testing.AllocsPerRun(100, func() { q.QuantizeQuery(query, &qq) }); allocs > 0 {
		t.Fatalf("QuantizeQuery allocates %.1f/op after warmup", allocs)
	}
}

// BenchmarkScanKernels is the E15 kernel row: one full candidate scan over
// n rows, f32 fused kernel vs int8 quantized kernel, at the retrieval
// dimensionality (512) and the benchmark dimensionality (64).
func BenchmarkScanKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{64, 512} {
		rows := randomRows(4096, d, rng)
		m := mustFromRows(b, rows)
		q := Quantize(m)
		query := randomRows(1, d, rng)[0]
		dst := make([]float32, m.Rows())
		b.Run(sizeName("f32", d), func(b *testing.B) {
			b.SetBytes(int64(m.Bytes()))
			qn := SquaredNorm(query)
			for i := 0; i < b.N; i++ {
				m.L2SquaredRange(query, qn, 0, m.Rows(), dst)
			}
		})
		b.Run(sizeName("int8", d), func(b *testing.B) {
			b.SetBytes(int64(q.Bytes()))
			var qq QuantizedQuery
			for i := 0; i < b.N; i++ {
				q.QuantizeQuery(query, &qq)
				q.L2SquaredRange(&qq, 0, q.Rows(), dst)
			}
		})
	}
}

func sizeName(kind string, d int) string {
	return kind + "_d" + string(rune('0'+d/100)) + string(rune('0'+(d/10)%10)) + string(rune('0'+d%10))
}
