package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MultiHeadAttention is a standard scaled dot-product self-attention
// block (Vaswani et al.) with a residual connection:
//
//	y = x + Concat(head_1..head_h) Wo
//	head_i = softmax(Q_i K_iᵀ / √d_k) V_i
//
// where Q = xWq, K = xWk, V = xWv and d_k = dim/heads. The residual
// connection keeps deep Q-networks trainable; the paper stacks two of
// these blocks in its policy network (Section IV-C).
type MultiHeadAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *Param

	// forward caches
	x        *Tensor
	q, k, v  *Tensor
	attn     []*Tensor // per-head softmax outputs [seq, seq]
	headsOut *Tensor   // concatenated head outputs [seq, dim]

	// Workspace: buffers reused across calls so steady-state
	// Forward/Backward allocates nothing. Backward's per-head scratches
	// are reused sequentially (heads are processed one at a time).
	out                    *Tensor // forward output
	qh, kh, vh             *Tensor // per-head column slices
	dx, dHeads, dq, dk, dv *Tensor // backward accumulators
	dHh, dA, dVh           *Tensor // per-head backward scratches
	dS, dQh, dKh           *Tensor
	gw                     *Tensor // dim×dim weight-gradient scratch
	dxTerm                 *Tensor // seq×dim input-gradient term scratch
	// cached transposes of the projection weights for Backward's dy×Wᵀ
	// products, invalidated on optimizer step via the Param version
	// counter. Forward multiplies by the weights as stored and never
	// builds them.
	wqT, wkT, wvT, woT paramTranspose
}

// NewMultiHeadAttention creates an attention block. dim must be divisible
// by heads.
func NewMultiHeadAttention(name string, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", dim, heads))
	}
	m := &MultiHeadAttention{Dim: dim, Heads: heads,
		Wq: newParam(name+".wq", dim, dim),
		Wk: newParam(name+".wk", dim, dim),
		Wv: newParam(name+".wv", dim, dim),
		Wo: newParam(name+".wo", dim, dim),
	}
	std := math.Sqrt(1 / float64(dim))
	for _, p := range []*Param{m.Wq, m.Wk, m.Wv, m.Wo} {
		p.w.Randn(rng, std)
		p.markUpdated()
	}
	return m
}

// colSliceInto copies columns [start, start+out.Cols) of t into out.
func colSliceInto(out, t *Tensor, start int) *Tensor {
	for r := 0; r < t.Rows; r++ {
		copy(out.Row(r), t.Row(r)[start:start+out.Cols])
	}
	return out
}

// addColSlice adds src into columns [start, start+src.Cols) of dst.
func addColSlice(dst, src *Tensor, start int) {
	for r := 0; r < dst.Rows; r++ {
		drow := dst.Row(r)[start : start+src.Cols]
		for i, v := range src.Row(r) {
			drow[i] += v
		}
	}
}

// Forward implements Layer. x is [seq, dim]. Each head reads its
// columns of q, k and v in place: its scores, softmax and weighted sum
// are written straight into attn[h] and headsOut, with every add and
// multiply in the order of the products they replace (DESIGN.md §8).
func (m *MultiHeadAttention) Forward(x *Tensor) *Tensor {
	if x.Cols != m.Dim {
		panic(fmt.Sprintf("nn: attention expects width %d, got %d", m.Dim, x.Cols))
	}
	m.x = x
	rows := x.Rows
	m.q = EnsureTensor(m.q, rows, m.Dim)
	m.k = EnsureTensor(m.k, rows, m.Dim)
	m.v = EnsureTensor(m.v, rows, m.Dim)
	MatMulInto(m.q, x, m.Wq.w)
	MatMulInto(m.k, x, m.Wk.w)
	MatMulInto(m.v, x, m.Wv.w)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	if len(m.attn) != m.Heads {
		m.attn = make([]*Tensor, m.Heads)
	}
	m.headsOut = EnsureTensor(m.headsOut, rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		start := h * dk
		m.attn[h] = EnsureTensor(m.attn[h], rows, rows)
		for i := 0; i < rows; i++ {
			a := m.attn[h].Data[i*rows : (i+1)*rows]
			at := i*m.Dim + start
			dotRowsInto(a, m.q.Data[at:at+dk], m.k.Data, m.Dim, start)
			for j := range a {
				a[j] *= scale
			}
			softmaxRow(a, a)
			weightedSumInto(m.headsOut.Data[at:at+dk], a, m.v.Data, m.Dim, start)
		}
	}
	m.out = EnsureTensor(m.out, rows, m.Dim)
	out := MatMulInto(m.out, m.headsOut, m.Wo.w)
	AddInto(out, x) // residual
	return out
}

// weightedSumInto writes out[c] = Σ_j w[j]·v[j·stride+off+c] for every
// c < len(out): one head's columns of a row-major v, weighted by one
// row of attention. Each sum starts from +0 with j ascending and skips
// exact-zero weights — the order of a product (matMulAcc, mulRow) — so
// out is MatMul(w, v's column block) bit for bit. The accumulator is
// never −0, so writing it equals adding it to a zeroed row.
func weightedSumInto(out, w, v []float64, stride, off int) {
	c := 0
	for ; c+4 <= len(out); c += 4 {
		var s0, s1, s2, s3 float64
		p := off + c
		for _, wj := range w {
			if wj != 0 {
				vr := v[p : p+4 : p+4]
				s0 += wj * vr[0]
				s1 += wj * vr[1]
				s2 += wj * vr[2]
				s3 += wj * vr[3]
			}
			p += stride
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < len(out); c++ {
		var s float64
		p := off + c
		for _, wj := range w {
			if wj != 0 {
				s += wj * v[p]
			}
			p += stride
		}
		out[c] = s
	}
}

// Backward implements Layer.
func (m *MultiHeadAttention) Backward(dy *Tensor) *Tensor {
	rows := m.x.Rows
	// Residual path.
	m.dx = EnsureTensor(m.dx, rows, m.Dim)
	dx := m.dx
	CopyInto(dx, dy)

	// Output projection.
	m.gw = EnsureTensor(m.gw, m.Dim, m.Dim)
	AddInto(m.Wo.Grad(), TMatMulInto(m.gw, m.headsOut, dy))
	m.dHeads = EnsureTensor(m.dHeads, rows, m.Dim)
	dHeads := MatMulInto(m.dHeads, dy, m.woT.of(m.Wo)) // dy×Woᵀ [seq, dim]

	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	m.dq = EnsureTensor(m.dq, rows, m.Dim)
	m.dk = EnsureTensor(m.dk, rows, m.Dim)
	m.dv = EnsureTensor(m.dv, rows, m.Dim)
	dq, dkT, dv := m.dq, m.dk, m.dv
	dq.Zero()
	dkT.Zero()
	dv.Zero()
	m.qh = EnsureTensor(m.qh, rows, dk)
	m.kh = EnsureTensor(m.kh, rows, dk)
	m.vh = EnsureTensor(m.vh, rows, dk)
	m.dHh = EnsureTensor(m.dHh, rows, dk)
	m.dA = EnsureTensor(m.dA, rows, rows)
	m.dVh = EnsureTensor(m.dVh, rows, dk)
	m.dS = EnsureTensor(m.dS, rows, rows)
	m.dQh = EnsureTensor(m.dQh, rows, dk)
	m.dKh = EnsureTensor(m.dKh, rows, dk)
	for h := 0; h < m.Heads; h++ {
		start := h * dk
		dHh := colSliceInto(m.dHh, dHeads, start)
		qh := colSliceInto(m.qh, m.q, start)
		kh := colSliceInto(m.kh, m.k, start)
		vh := colSliceInto(m.vh, m.v, start)
		a := m.attn[h]

		dA := MatMulTInto(m.dA, dHh, vh)  // [seq, seq]
		dVh := TMatMulInto(m.dVh, a, dHh) // [seq, dk]
		dS := softmaxBackwardRowsInto(m.dS, a, dA).Scale(scale)
		dQh := MatMulInto(m.dQh, dS, kh)  // [seq, dk]
		dKh := TMatMulInto(m.dKh, dS, qh) // [seq, dk]

		addColSlice(dq, dQh, start)
		addColSlice(dkT, dKh, start)
		addColSlice(dv, dVh, start)
	}

	AddInto(m.Wq.Grad(), TMatMulInto(m.gw, m.x, dq))
	AddInto(m.Wk.Grad(), TMatMulInto(m.gw, m.x, dkT))
	AddInto(m.Wv.Grad(), TMatMulInto(m.gw, m.x, dv))

	m.dxTerm = EnsureTensor(m.dxTerm, rows, m.Dim)
	AddInto(dx, MatMulInto(m.dxTerm, dq, m.wqT.of(m.Wq)))
	AddInto(dx, MatMulInto(m.dxTerm, dkT, m.wkT.of(m.Wk)))
	AddInto(dx, MatMulInto(m.dxTerm, dv, m.wvT.of(m.Wv)))
	return dx
}

// Params implements Layer.
func (m *MultiHeadAttention) Params() []*Param {
	return []*Param{m.Wq, m.Wk, m.Wv, m.Wo}
}

// Share implements Layer.
func (m *MultiHeadAttention) Share() Layer {
	return &MultiHeadAttention{Dim: m.Dim, Heads: m.Heads, Wq: m.Wq, Wk: m.Wk, Wv: m.Wv, Wo: m.Wo}
}
