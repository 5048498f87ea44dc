package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The attention and LayerNorm forwards read their rows in place. Their
// oracle is the plain copying forward: per-head column copies through
// MatMul / MatMulT / SoftmaxRows, and LayerNorm one row at a time. Both
// must agree to the bit on every output and on every cache Backward
// reads.

// refAttention is the copying attention forward: each head's q, k, v
// columns copied out, scores = MatMulT(qh, kh) scaled, a = SoftmaxRows,
// and MatMul(a, vh) added into a zeroed concatenation.
func refAttention(m *MultiHeadAttention, x *Tensor) (out, headsOut *Tensor, attn []*Tensor) {
	q, k, v := MatMul(x, m.Wq.w), MatMul(x, m.Wk.w), MatMul(x, m.Wv.w)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	headsOut = NewTensor(x.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		start := h * dk
		qh := colSliceInto(NewTensor(x.Rows, dk), q, start)
		kh := colSliceInto(NewTensor(x.Rows, dk), k, start)
		vh := colSliceInto(NewTensor(x.Rows, dk), v, start)
		a := SoftmaxRows(MatMulT(qh, kh).Scale(scale))
		attn = append(attn, a)
		addColSlice(headsOut, MatMul(a, vh), start)
	}
	out = MatMul(headsOut, m.Wo.w)
	AddInto(out, x)
	return out, headsOut, attn
}

// refLayerNorm is the row-at-a-time LayerNorm forward.
func refLayerNorm(ln *LayerNorm, x *Tensor) (y, norm *Tensor, invStd []float64) {
	y, norm = NewTensor(x.Rows, x.Cols), NewTensor(x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varsum float64
		for _, v := range row {
			d := v - mean
			varsum += d * d
		}
		inv := 1 / math.Sqrt(varsum/float64(len(row))+ln.Eps)
		invStd = append(invStd, inv)
		for i, v := range row {
			n := (v - mean) * inv
			norm.Set(r, i, n)
			y.Set(r, i, n*ln.Gain.w.Data[i]+ln.Bias.w.Data[i])
		}
	}
	return y, norm, invStd
}

// checkForwards runs both layers' Forward on x twice — through the
// layer's own workspace, after a forward of another shape has dirtied
// it — and compares outputs and caches with the references.
func checkForwards(t testing.TB, name string, m *MultiHeadAttention, ln *LayerNorm, x *Tensor) {
	t.Helper()
	out, headsOut, attn := refAttention(m, x)
	y, norm, invStd := refLayerNorm(ln, x)
	for pass := 0; pass < 2; pass++ {
		equalTensors(t, name+" attention out", m.Forward(x), out)
		equalTensors(t, name+" attention headsOut", m.headsOut, headsOut)
		for h, a := range attn {
			equalTensors(t, name+" attention attn[h]", m.attn[h], a)
		}
		equalTensors(t, name+" layernorm y", ln.Forward(x), y)
		equalTensors(t, name+" layernorm norm", ln.norm, norm)
		equalTensors(t, name+" layernorm invStd", RowVector(ln.invStd), RowVector(invStd))
		dirtyRows := x.Rows%9 + 1
		m.Forward(dirty(dirtyRows, m.Dim))
		ln.Forward(dirty(dirtyRows, m.Dim))
	}
}

// TestForwardMatchesReference: every shape of rows 1–9, heads 1–4 and
// head width 1–13, on both dispatch paths, with dense inputs, inputs
// large enough that most softmax weights underflow to exact zeros (the
// weighted sum's skip), and planted zeros of both signs, NaN and ±Inf in
// the input and the weights.
func TestForwardMatchesReference(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for rows := 1; rows <= 9; rows++ {
			for heads := 1; heads <= 4; heads++ {
				for dk := 1; dk <= 13; dk++ {
					dim := heads * dk
					m := NewMultiHeadAttention("mha", dim, heads, rng)
					ln := NewLayerNorm("ln", dim)
					ln.Gain.w.Randn(rng, 1)
					ln.Bias.w.Randn(rng, 1)
					x := NewTensor(rows, dim).Randn(rng, 1)
					checkForwards(t, "dense", m, ln, x)

					huge := x.Clone().Scale(1e3)
					checkForwards(t, "underflowing softmax", m, ln, huge)
					// An infinite value weighted by an underflowed zero
					// is skipped, not a NaN.
					plant(m.Wv.w, rng)
					checkForwards(t, "underflowing softmax, specials in Wv", m, ln, huge)

					for _, w := range []*Tensor{x, m.Wq.w, m.Wk.w, m.Wo.w, ln.Gain.w} {
						plant(w, rng)
					}
					checkForwards(t, "specials", m, ln, x)
				}
			}
		}
	}
	t.Run("dispatch", run)
	goPath(func() { t.Run("go path", run) })
}

// FuzzAttentionForward: both forwards against their references
// on fuzzed shapes, inputs and weights, on both dispatch paths. Three
// shape bytes (rows 1–9, heads 1–4, head width 1–13), then values as in
// FuzzMatMulKernel; the sixteen-bit integers over three are large enough
// for softmax weights to underflow to zero.
func FuzzAttentionForward(f *testing.F) {
	for rows := 0; rows < 9; rows += 2 {
		for heads := 0; heads < 4; heads++ {
			f.Add([]byte{byte(rows), byte(heads), byte(3 * heads), 7, 0, 0, 0x80, 251, 255, 2, 0x80, 40, 1, 3, 0x80, 0, 0, 9, 2})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, heads, dk := int(data[0])%9+1, int(data[1])%4+1, int(data[2])%13+1
		value := fuzzValues(data[3:])
		m := NewMultiHeadAttention("mha", heads*dk, heads, rand.New(rand.NewSource(1)))
		ln := NewLayerNorm("ln", heads*dk)
		x := NewTensor(rows, heads*dk)
		for _, w := range []*Tensor{x, m.Wq.w, m.Wk.w, m.Wv.w, m.Wo.w, ln.Gain.w, ln.Bias.w} {
			for i := range w.Data {
				w.Data[i] = value()
			}
		}
		checkForwards(t, "fuzz", m, ln, x)
		goPath(func() { checkForwards(t, "fuzz go path", m, ln, x) })
	})
}
