// Package nn is a small, dependency-free neural-network library built for
// the DQN container scheduler: dense float64 tensors, layers with explicit
// backward passes (linear, ReLU, layer normalization, multi-head
// attention), the Adam optimizer, and gob-based model serialization.
//
// The library trades generality for clarity and determinism. Layers
// process one sample at a time ([rows, cols] matrices, where rows is a
// token/sequence dimension); minibatching is done by accumulating
// gradients across per-sample backward passes, which is exact for the
// sum-of-losses objective and keeps every op simple enough to verify with
// finite-difference tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix of float64.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor allocates a zeroed rows×cols tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(data []float64, rows, cols int) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// RowVector wraps data as a 1×n tensor (not copied).
func RowVector(data []float64) *Tensor { return FromSlice(data, 1, len(data)) }

// At returns element (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Row returns a view of row r (shared storage).
func (t *Tensor) Row(r int) []float64 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with Gaussian noise scaled by std.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// EnsureTensor returns t reshaped to rows×cols when its backing array is
// large enough, or a freshly allocated tensor otherwise. It is the
// workspace primitive: steady-state calls with a stable shape reuse the
// same storage and never touch the heap. The returned tensor's contents
// are unspecified — callers that need zeros must Zero it (the *Into ops
// below do their own zeroing where the naive op started from zeros).
func EnsureTensor(t *Tensor, rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	if t == nil || cap(t.Data) < rows*cols {
		return NewTensor(rows, cols)
	}
	t.Rows, t.Cols = rows, cols
	t.Data = t.Data[:rows*cols]
	return t
}

// CopyInto copies src into dst element-wise. Shapes must match.
func CopyInto(dst, src *Tensor) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("nn: copy %dx%d <- %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	copy(dst.Data, src.Data)
}

// TransposeInto writes srcᵀ into dst. dst must be src.Cols×src.Rows.
func TransposeInto(dst, src *Tensor) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("nn: transpose %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		for j, v := range srow {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// axpyRow computes orow[j] += av*brow[j] for every j, 4-way unrolled.
// Output elements are independent, so the unroll changes instruction
// scheduling only — every orow[j] sees the same single add it would in
// the plain loop.
func axpyRow(orow, brow []float64, av float64) {
	n := len(brow)
	orow = orow[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		orow[j] += av * brow[j]
		orow[j+1] += av * brow[j+1]
		orow[j+2] += av * brow[j+2]
		orow[j+3] += av * brow[j+3]
	}
	for ; j < n; j++ {
		orow[j] += av * brow[j]
	}
}

// matMulAcc accumulates a×b into out without zeroing it first. The loop
// order (k ascending per output element, exact-zero lhs entries skipped)
// is the definition of a product in this package: MatMul runs it, the
// row kernel under MatMulInto reproduces it bit for bit, and it is what
// MatMulInto itself runs where the kernel is not available.
func matMulAcc(out, a, b *Tensor) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow(orow, b.Row(k), av)
		}
	}
}

// MatMul returns a×b. Panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Cols)
	matMulAcc(out, a, b)
	return out
}

// MatMulInto computes a×b into dst (zeroed first), producing exactly the
// values MatMul would, with no allocation. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if useAVX2 {
		for i := 0; i < a.Rows; i++ {
			mulRow(dst.Row(i), a.Row(i), 1, b.Data, a.Cols, b.Cols)
		}
		return dst
	}
	dst.Zero()
	matMulAcc(dst, a, b)
	return dst
}

// mulRow writes one output row of a product,
//
//	dst[j] = Σ_k a[k·astride]·w[k·n+j]   for j in [0, n),
//
// each dst[j] accumulated from +0 with k ascending and exact-zero a
// entries skipped — matMulAcc's order (astride 1: a is a row of the left
// operand) and tMatMulAcc's (astride = the left operand's width: a is one
// of its columns). The AVX2 kernel does the same IEEE multiplies and adds
// four columns per instruction, never fused, so the sums are the scalar
// loop's to the last bit; the n mod 4 columns it leaves are done here.
// Only called when useAVX2 is set.
func mulRow(dst, a []float64, astride int, w []float64, k, n int) {
	// The kernel works on raw pointers: these are its bounds checks.
	_, _, _ = dst[n-1], a[(k-1)*astride], w[k*n-1]
	n4 := n &^ 3
	if n4 > 0 {
		mulRowAVX2(&dst[0], &a[0], astride, &w[0], k, n)
	}
	for j := n4; j < n; j++ {
		var s float64
		for kk := 0; kk < k; kk++ {
			if av := a[kk*astride]; av != 0 {
				s += av * w[kk*n+j]
			}
		}
		dst[j] = s
	}
}

// matMulTCore writes a×bᵀ into out, overwriting every element.
func matMulTCore(out, a, b *Tensor) {
	for i := 0; i < a.Rows; i++ {
		dotRowsInto(out.Row(i), a.Row(i), b.Data, b.Cols, 0)
	}
}

// dotRowsInto writes orow[j] = arow · b[j·stride+off:][:len(arow)] for
// every j < len(orow): the dot products of arow with len(orow) rows of
// a row-major b, or with one column block of them (off > 0). It takes
// four rows per dotRow4 pass while three or more are left, and the last
// one or two in a dotRow2 pass; a pass short of rows repeats its final
// row once, so no pass computes more than one product twice. Every slot
// has its own accumulator, so each orow[j] is the one-accumulator
// k-ascending sum whichever pass makes it.
func dotRowsInto(orow, arow, b []float64, stride, off int) {
	n, k := len(orow), len(arow)
	row := func(j int) []float64 { p := j*stride + off; return b[p : p+k : p+k] }
	j := 0
	for ; j+2 < n; j += 4 {
		j3 := min(j+3, n-1)
		s0, s1, s2, s3 := dotRow4(arow, row(j), row(j+1), row(j+2), row(j3))
		orow[j], orow[j+1], orow[j+2], orow[j3] = s0, s1, s2, s3
	}
	if j < n {
		j1 := min(j+1, n-1)
		s0, s1 := dotRow2(arow, row(j), row(j1))
		orow[j], orow[j1] = s0, s1
	}
}

// dotRow4 returns the k-ascending dot products of arow with four rows of
// its length, each from +0 in its own accumulator, so the chains overlap.
func dotRow4(arow, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
	for k, av := range arow {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	return s0, s1, s2, s3
}

// dotRow2 is dotRow4 over two rows.
func dotRow2(arow, b0, b1 []float64) (s0, s1 float64) {
	b0, b1 = b0[:len(arow)], b1[:len(arow)]
	for k, av := range arow {
		s0 += av * b0[k]
		s1 += av * b1[k]
	}
	return s0, s1
}

// MatMulT returns a×bᵀ.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Rows)
	matMulTCore(out, a, b)
	return out
}

// MatMulTInto computes a×bᵀ into dst with no allocation; values equal
// MatMulT exactly. dst must not alias a or b.
func MatMulTInto(dst, a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmulT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	matMulTCore(dst, a, b)
	return dst
}

// tMatMulAcc accumulates aᵀ×b into out without zeroing it first.
func tMatMulAcc(out, a, b *Tensor) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow(out.Row(i), brow, av)
		}
	}
}

// TMatMul returns aᵀ×b.
func TMatMul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: tmatmul (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Cols, b.Cols)
	tMatMulAcc(out, a, b)
	return out
}

// TMatMulInto computes aᵀ×b into dst (zeroed first) with no allocation;
// values equal TMatMul exactly. dst must not alias a or b.
func TMatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: tmatmul (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: tmatmul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if useAVX2 {
		for i := 0; i < a.Cols; i++ {
			mulRow(dst.Row(i), a.Data[i:], a.Cols, b.Data, a.Rows, b.Cols)
		}
		return dst
	}
	dst.Zero()
	tMatMulAcc(dst, a, b)
	return dst
}

// AddInto adds b into a element-wise (a += b).
func AddInto(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: add %dx%d += %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	ad := a.Data[:len(b.Data)]
	for i, v := range b.Data {
		ad[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// SoftmaxRows applies softmax independently to each row, returning a new
// tensor. Numerically stable (max-shifted).
func SoftmaxRows(t *Tensor) *Tensor {
	return SoftmaxRowsInto(NewTensor(t.Rows, t.Cols), t)
}

// SoftmaxRowsInto computes the row-wise softmax of t into out (fully
// overwritten) with no allocation; values equal SoftmaxRows exactly.
func SoftmaxRowsInto(out, t *Tensor) *Tensor {
	if out.Rows != t.Rows || out.Cols != t.Cols {
		panic(fmt.Sprintf("nn: softmax dst %dx%d, want %dx%d", out.Rows, out.Cols, t.Rows, t.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		softmaxRow(out.Row(r), t.Row(r))
	}
	return out
}

// softmaxRow writes the max-shifted softmax of row into out, which may
// be row itself: each element is read before it is written.
func softmaxRow(out, row []float64) {
	out = out[:len(row)]
	max := row[0]
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range row {
		e := 1.0 // math.Exp(±0), without the call: every row has its max
		if d := v - max; d != 0 {
			e = math.Exp(d)
		}
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// softmaxBackwardRows computes the gradient through a row-wise softmax:
// dx_i = y_i * (dy_i - Σ_j dy_j y_j) for each row, where y is the softmax
// output.
func softmaxBackwardRows(y, dy *Tensor) *Tensor {
	return softmaxBackwardRowsInto(NewTensor(y.Rows, y.Cols), y, dy)
}

// softmaxBackwardRowsInto is softmaxBackwardRows into a caller-provided
// tensor (fully overwritten).
func softmaxBackwardRowsInto(dx, y, dy *Tensor) *Tensor {
	for r := 0; r < y.Rows; r++ {
		yr, dyr, dxr := y.Row(r), dy.Row(r), dx.Row(r)
		var dot float64
		for i := range yr {
			dot += dyr[i] * yr[i]
		}
		for i := range yr {
			dxr[i] = yr[i] * (dyr[i] - dot)
		}
	}
	return dx
}

// Argmax returns the index of the maximum element of a 1×n or n×1 tensor
// flattened in row-major order.
func Argmax(t *Tensor) int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
