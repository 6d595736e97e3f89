package vecmath

import "fmt"

// QuantizedMatrix is the int8 companion of Matrix: the same rows stored as
// one contiguous code slice with a per-row affine dequantization
// (value ≈ offset + scale·code), plus the per-row code sum and dequantized
// squared norm the fused distance kernels need. It costs dim bytes per row
// against the Matrix's 4·dim — a ÷4 on the scanned data — and exists for
// two-stage search: rank candidates with cheap int8 arithmetic, then rerank
// the few survivors exactly against the f32 Matrix.
//
// A QuantizedMatrix is immutable after Quantize and safe for unlimited
// concurrent use.
type QuantizedMatrix struct {
	codes []int8
	dim   int
	// scales/offsets define each row's affine map; sums[i] is Σ codes of
	// row i (pre-summed so the cross terms of the fused dot cost O(1)), and
	// norms[i] is ‖dequantized row i‖², making the reconstructed distance a
	// true metric between dequantized points (never negative beyond float
	// rounding).
	scales  []float32
	offsets []float32
	sums    []int32
	norms   []float32
}

// quantRange is the symmetric code range: codes live in [-127, 127] so the
// affine map stays exactly invertible around the row midpoint (-128 would
// skew the offset by half a step).
const quantRange = 254

// Quantize builds the int8 view of m. Each row is quantized independently
// against its own min/max, so rows with very different magnitudes (as TF-IDF
// hash embeddings have) don't steal each other's resolution.
func Quantize(m *Matrix) *QuantizedMatrix {
	n, d := m.Rows(), m.Dim()
	q := &QuantizedMatrix{
		codes:   make([]int8, n*d),
		dim:     d,
		scales:  make([]float32, n),
		offsets: make([]float32, n),
		sums:    make([]int32, n),
		norms:   make([]float32, n),
	}
	for i := 0; i < n; i++ {
		q.scales[i], q.offsets[i], q.sums[i], q.norms[i] =
			quantizeRow(m.Row(i), q.codes[i*d:(i+1)*d:(i+1)*d])
	}
	return q
}

// quantizeRow fills dst with the affine int8 codes of v and returns the
// row's scale, offset, code sum, and dequantized squared norm.
func quantizeRow(v []float32, dst []int8) (scale, offset float32, sum int32, norm float32) {
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	offset = (lo + hi) / 2
	scale = (hi - lo) / quantRange
	inv := float32(0)
	if scale > 0 {
		inv = 1 / scale
	}
	for j, x := range v {
		c := int32(roundf((x - offset) * inv))
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		dst[j] = int8(c)
		sum += c
		dq := offset + scale*float32(c)
		norm += dq * dq
	}
	return scale, offset, sum, norm
}

// roundf rounds to nearest, ties away from zero — enough for quantization
// (a one-code tie bias is far below the quantization error itself) and free
// of the math.Round call overhead in the per-row loop.
func roundf(x float32) float32 {
	if x >= 0 {
		return float32(int32(x + 0.5))
	}
	return float32(int32(x - 0.5))
}

// Rows reports the number of stored vectors.
func (q *QuantizedMatrix) Rows() int {
	if q == nil {
		return 0
	}
	return len(q.norms)
}

// Dim reports the vector dimensionality.
func (q *QuantizedMatrix) Dim() int {
	if q == nil {
		return 0
	}
	return q.dim
}

// Bytes reports the backing-store size: codes plus per-row metadata.
func (q *QuantizedMatrix) Bytes() int {
	return len(q.codes) + 4*(len(q.scales)+len(q.offsets)+len(q.sums)+len(q.norms))
}

// Bytes reports the Matrix backing-store size (vector data plus norms), the
// f32 side of the quantized-tier memory comparison.
func (m *Matrix) Bytes() int { return 4 * (len(m.data) + len(m.norms)) }

// Row returns row i's codes as a slice aliasing the matrix storage. Callers
// must not mutate it.
func (q *QuantizedMatrix) Row(i int) []int8 {
	return q.codes[i*q.dim : (i+1)*q.dim : (i+1)*q.dim]
}

// QuantizedQuery is a query vector quantized against its own affine range,
// ready for fused int8 distance kernels. The Codes buffer is caller-owned
// and recycled across searches (the ANN scratch pool holds one per leased
// scratch), so quantizing a query steadily allocates nothing.
type QuantizedQuery struct {
	Codes  []int8
	scale  float32
	offset float32
	sum    int32
	norm   float32 // ‖dequantized query‖²
}

// QuantizeQuery quantizes q into qq, growing qq.Codes as needed. q must
// have the matrix dimensionality.
func (m *QuantizedMatrix) QuantizeQuery(q []float32, qq *QuantizedQuery) {
	if len(q) != m.dim {
		panic(fmt.Sprintf("vecmath: quantize query of dim %d against matrix of dim %d", len(q), m.dim))
	}
	if cap(qq.Codes) < len(q) {
		qq.Codes = make([]int8, len(q))
	}
	qq.Codes = qq.Codes[:len(q)]
	qq.scale, qq.offset, qq.sum, qq.norm = quantizeRow(q, qq.Codes)
}

// dotInt8Generic is the portable quantized inner-product kernel: an 8-wide
// unrolled multiply-accumulate into four independent int32 lanes, which
// breaks the loop-carried dependency a single accumulator would serialize
// on. Products are bounded by 127² so the int32 lanes cannot overflow below
// ~4M dims. On amd64 with AVX2 the bulk of the work goes through the
// assembly kernel instead (see dot_amd64.s); dotInt8 is the dispatcher.
func dotInt8Generic(a, b []int8) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += int32(aa[0])*int32(bb[0]) + int32(aa[4])*int32(bb[4])
		s1 += int32(aa[1])*int32(bb[1]) + int32(aa[5])*int32(bb[5])
		s2 += int32(aa[2])*int32(bb[2]) + int32(aa[6])*int32(bb[6])
		s3 += int32(aa[3])*int32(bb[3]) + int32(aa[7])*int32(bb[7])
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// dotQ reconstructs the approximate f32 inner product between the
// dequantized query and dequantized row i by expanding
// Σ (oq + sq·Qj)(or + sr·Rj) around the precomputed code sums: only the
// int8 code dot varies per candidate; the three cross terms are O(1).
func (m *QuantizedMatrix) dotQ(qq *QuantizedQuery, i int) float32 {
	sr, or := m.scales[i], m.offsets[i]
	row := m.codes[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
	return float32(m.dim)*qq.offset*or +
		qq.offset*sr*float32(m.sums[i]) +
		or*qq.scale*float32(qq.sum) +
		qq.scale*sr*float32(dotInt8(qq.Codes, row))
}

// L2SquaredTo returns the squared distance between the dequantized query
// and dequantized row i — the stage-1 ranking distance of two-stage search.
func (m *QuantizedMatrix) L2SquaredTo(qq *QuantizedQuery, i int) float32 {
	return clampNonNeg(qq.norm + m.norms[i] - 2*m.dotQ(qq, i))
}

// L2SquaredRange computes the quantized squared distances to rows lo..hi−1
// into dst[0:hi−lo], mirroring Matrix.L2SquaredRange for tiled scans.
func (m *QuantizedMatrix) L2SquaredRange(qq *QuantizedQuery, lo, hi int, dst []float32) {
	for i := lo; i < hi; i++ {
		dst[i-lo] = m.L2SquaredTo(qq, i)
	}
}
