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
	// Forward/Backward allocates nothing. Per-head scratches are reused
	// sequentially (heads are processed one at a time).
	out                    *Tensor // forward output
	qh, kh, vh             *Tensor // per-head column slices
	scores, hv             *Tensor // per-head score / weighted-value scratch
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
		p.W.Randn(rng, std)
		p.MarkUpdated()
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

// ensureHeadScratch sizes the per-head scratch buffers for a seq×dim
// input split into heads of width dk.
func (m *MultiHeadAttention) ensureHeadScratch(rows, dk int) {
	m.qh = EnsureTensor(m.qh, rows, dk)
	m.kh = EnsureTensor(m.kh, rows, dk)
	m.vh = EnsureTensor(m.vh, rows, dk)
}

// Forward implements Layer. x is [seq, dim].
func (m *MultiHeadAttention) Forward(x *Tensor) *Tensor {
	if x.Cols != m.Dim {
		panic(fmt.Sprintf("nn: attention expects width %d, got %d", m.Dim, x.Cols))
	}
	m.x = x
	m.q = EnsureTensor(m.q, x.Rows, m.Dim)
	m.k = EnsureTensor(m.k, x.Rows, m.Dim)
	m.v = EnsureTensor(m.v, x.Rows, m.Dim)
	MatMulInto(m.q, x, m.Wq.W)
	MatMulInto(m.k, x, m.Wk.W)
	MatMulInto(m.v, x, m.Wv.W)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	if len(m.attn) != m.Heads {
		m.attn = make([]*Tensor, m.Heads)
	}
	m.headsOut = EnsureTensor(m.headsOut, x.Rows, m.Dim)
	m.headsOut.Zero()
	m.ensureHeadScratch(x.Rows, dk)
	m.scores = EnsureTensor(m.scores, x.Rows, x.Rows)
	m.hv = EnsureTensor(m.hv, x.Rows, dk)
	for h := 0; h < m.Heads; h++ {
		start := h * dk
		qh := colSliceInto(m.qh, m.q, start)
		kh := colSliceInto(m.kh, m.k, start)
		vh := colSliceInto(m.vh, m.v, start)
		MatMulTInto(m.scores, qh, kh)
		m.scores.Scale(scale) // [seq, seq]
		m.attn[h] = EnsureTensor(m.attn[h], x.Rows, x.Rows)
		a := SoftmaxRowsInto(m.attn[h], m.scores)
		addColSlice(m.headsOut, MatMulInto(m.hv, a, vh), start)
	}
	m.out = EnsureTensor(m.out, x.Rows, m.Dim)
	out := MatMulInto(m.out, m.headsOut, m.Wo.W)
	AddInto(out, x) // residual
	return out
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
	AddInto(m.Wo.Grad, TMatMulInto(m.gw, m.headsOut, dy))
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
	m.ensureHeadScratch(rows, dk)
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

	AddInto(m.Wq.Grad, TMatMulInto(m.gw, m.x, dq))
	AddInto(m.Wk.Grad, TMatMulInto(m.gw, m.x, dkT))
	AddInto(m.Wv.Grad, TMatMulInto(m.gw, m.x, dv))

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
