package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a trainable tensor together with its gradient accumulator.
// Its weights are unexported: only this package writes them (the layer
// constructors, Adam.Step, Load and CopyParams), and each writer bumps
// the version, so no derived cache can go stale unseen. The gradient
// exists only once something trains the parameter (see Grad).
type Param struct {
	Name string
	w    *Tensor
	grad *Tensor

	// version counts weight updates; derived caches (weight transposes,
	// drl's target cache) compare it to decide whether they are stale.
	version uint64
}

// newParam allocates a parameter's weights; its gradient waits for the
// first Grad.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, w: NewTensor(rows, cols)}
}

// Grad returns the gradient accumulator, allocating it zeroed on first
// use. Backward and Adam reach it only through here, so a parameter
// that only forward passes read (a served model's) never holds one.
func (p *Param) Grad() *Tensor {
	if p.grad == nil {
		p.grad = NewTensor(p.w.Rows, p.w.Cols)
	}
	return p.grad
}

// DropGrad releases the gradient accumulator; the next Grad allocates a
// zeroed one. Adam.Step leaves every gradient zero, so between updates
// dropping it changes nothing a later update computes.
func (p *Param) DropGrad() { p.grad = nil }

// markUpdated records that the parameter's weights changed, invalidating
// derived caches (e.g. a layer's cached weight transpose).
func (p *Param) markUpdated() { p.version++ }

// Version returns the weight-update counter.
func (p *Param) Version() uint64 { return p.version }

// Weights returns a copy of the weight values in row-major order.
func (p *Param) Weights() []float64 { return append([]float64(nil), p.w.Data...) }

// paramTranspose lazily caches a parameter's weight transpose, revalidated
// against the parameter's update version. The cache belongs to one layer
// instance (like all workspaces, it is not goroutine-safe) and is never
// serialized or shared — gob snapshots and Share rebuild it on demand.
type paramTranspose struct {
	t       *Tensor
	version uint64
	valid   bool
}

// of returns pᵀ, recomputing it only when p changed since the last call.
func (c *paramTranspose) of(p *Param) *Tensor {
	if !c.valid || c.version != p.version {
		c.t = EnsureTensor(c.t, p.w.Cols, p.w.Rows)
		TransposeInto(c.t, p.w)
		c.version = p.version
		c.valid = true
	}
	return c.t
}

// Layer is a differentiable transformation of a [rows, cols] tensor.
// Forward caches whatever Backward needs; layers therefore process one
// sample at a time and are not safe for concurrent use.
//
// Share is the one way to build a layer over existing parameters: it
// returns a layer over the very *Params of this one (not copies) with
// fresh, empty workspaces, which Forward and Backward allocate on first
// use as they do for a new layer. Forward passes only read weights, so
// layers sharing parameters may each run on its own goroutine. A weight
// write (Adam.Step, Load, CopyParams) or a Backward, which accumulates
// into the shared Grad(), is seen by every sharer: train only parameters
// no other layer holds.
type Layer interface {
	// Forward computes the layer output for x.
	Forward(x *Tensor) *Tensor
	// Backward consumes the gradient w.r.t. the output and returns the
	// gradient w.r.t. the input, accumulating parameter gradients.
	// It must be called after Forward with matching shapes.
	Backward(dy *Tensor) *Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
	// Share returns a layer over the same parameters with fresh
	// workspaces.
	Share() Layer
}

// Linear is a fully connected layer: y = xW + b, applied row-wise.
type Linear struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out

	x *Tensor // cached input

	// Workspace: steady-state Forward/Backward reuses these buffers and
	// performs zero heap allocations. The tensors returned by Forward and
	// Backward are owned by the layer and valid until its next call.
	y  *Tensor        // forward output
	dx *Tensor        // input gradient
	dw *Tensor        // multi-row weight-gradient scratch (summed into Weight.Grad())
	wT paramTranspose // cached Weightᵀ for Backward's input-gradient matmul; Forward never builds it
}

// NewLinear creates a linear layer with He-initialized weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out,
		Weight: newParam(name+".weight", in, out),
		Bias:   newParam(name+".bias", 1, out),
	}
	l.Weight.w.Randn(rng, math.Sqrt(2/float64(in)))
	l.Weight.markUpdated()
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *Tensor) *Tensor {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: linear expects %d inputs, got %d", l.In, x.Cols))
	}
	l.x = x
	l.y = EnsureTensor(l.y, x.Rows, l.Out)
	y := MatMulInto(l.y, x, l.Weight.w)
	bias := l.Bias.w.Data[:y.Cols]
	for r := 0; r < y.Rows; r++ {
		row := y.Row(r)
		for j, b := range bias {
			row[j] += b
		}
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(dy *Tensor) *Tensor {
	if l.x.Rows == 1 {
		// One row: xᵀ×dy would hold +0 + x[i]·dy[j], or +0 where x[i] is
		// an exact zero. Grad starts at +0 and a sum is −0 only when both
		// operands are, so Grad is never −0: adding the product straight
		// in, and skipping x[i] == 0 as the product does, is bit-identical.
		dyr, wg := dy.Data[:l.Out], l.Weight.Grad()
		for i, xv := range l.x.Data {
			if xv != 0 {
				axpyRow(wg.Row(i), dyr, xv)
			}
		}
	} else {
		// Each weight's sum over rows is formed first, then added once.
		l.dw = EnsureTensor(l.dw, l.In, l.Out)
		AddInto(l.Weight.Grad(), TMatMulInto(l.dw, l.x, dy))
	}
	bg := l.Bias.Grad().Data
	for r := 0; r < dy.Rows; r++ {
		row := dy.Row(r)
		for j, v := range row {
			bg[j] += v
		}
	}
	// dy×Wᵀ through the cached transpose: MatMulInto against Weightᵀ adds
	// the same products in the same k order as MatMulT against Weight, so
	// the result is bit-identical while exact-zero rows of dy (the DQN's
	// one-hot action gradients) are skipped entirely.
	l.dx = EnsureTensor(l.dx, dy.Rows, l.In)
	return MatMulInto(l.dx, dy, l.wT.of(l.Weight))
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Share implements Layer.
func (l *Linear) Share() Layer { return &Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool

	y, dx *Tensor // workspace: reused forward output / input gradient
}

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor) *Tensor {
	r.y = EnsureTensor(r.y, x.Rows, x.Cols)
	y := r.y
	copy(y.Data, x.Data)
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	for i, v := range y.Data {
		if v <= 0 {
			y.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *Tensor) *Tensor {
	r.dx = EnsureTensor(r.dx, dy.Rows, dy.Cols)
	dx := r.dx
	copy(dx.Data, dy.Data)
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Share implements Layer.
func (r *ReLU) Share() Layer { return &ReLU{} }

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned gain and bias.
type LayerNorm struct {
	Dim  int
	Gain *Param // 1×Dim
	Bias *Param // 1×Dim
	Eps  float64

	x, norm *Tensor
	invStd  []float64

	y, dx *Tensor   // workspace: reused forward output / input gradient
	dn    []float64 // per-row gradient scratch
}

// NewLayerNorm creates a layer norm over rows of width dim.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, Eps: 1e-5,
		Gain: newParam(name+".gain", 1, dim),
		Bias: newParam(name+".bias", 1, dim),
	}
	ln.Gain.w.Fill(1)
	ln.Gain.markUpdated()
	return ln
}

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *Tensor) *Tensor {
	if x.Cols != ln.Dim {
		panic(fmt.Sprintf("nn: layernorm expects width %d, got %d", ln.Dim, x.Cols))
	}
	ln.x = x
	ln.norm = EnsureTensor(ln.norm, x.Rows, x.Cols)
	if cap(ln.invStd) < x.Rows {
		ln.invStd = make([]float64, x.Rows)
	}
	ln.invStd = ln.invStd[:x.Rows]
	ln.y = EnsureTensor(ln.y, x.Rows, x.Cols)
	// Rows are taken in pairs so that two rows' mean chains, and then
	// their variance chains, overlap; each row's sums keep their own
	// order. An odd last row pairs with itself and is written twice with
	// the same values.
	n := x.Cols
	fn := float64(n)
	gain, bias := ln.Gain.w.Data[:n], ln.Bias.w.Data[:n]
	for r := 0; r < x.Rows; r += 2 {
		r1 := min(r+1, x.Rows-1)
		x0, x1 := x.Data[r*n:(r+1)*n], x.Data[r1*n:(r1+1)*n]
		var mean0, mean1 float64
		for i, v := range x0 {
			mean0 += v
			mean1 += x1[i]
		}
		mean0 /= fn
		mean1 /= fn
		var var0, var1 float64
		for i, v := range x0 {
			d0, d1 := v-mean0, x1[i]-mean1
			var0 += d0 * d0
			var1 += d1 * d1
		}
		inv0 := 1 / math.Sqrt(var0/fn+ln.Eps)
		inv1 := 1 / math.Sqrt(var1/fn+ln.Eps)
		ln.invStd[r], ln.invStd[r1] = inv0, inv1
		n0, n1 := ln.norm.Data[r*n:(r+1)*n], ln.norm.Data[r1*n:(r1+1)*n]
		y0, y1 := ln.y.Data[r*n:(r+1)*n], ln.y.Data[r1*n:(r1+1)*n]
		for i, v := range x0 {
			a, b := (v-mean0)*inv0, (x1[i]-mean1)*inv1
			n0[i], n1[i] = a, b
			y0[i], y1[i] = a*gain[i]+bias[i], b*gain[i]+bias[i]
		}
	}
	return ln.y
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(dy *Tensor) *Tensor {
	ln.dx = EnsureTensor(ln.dx, dy.Rows, dy.Cols)
	dx := ln.dx
	if cap(ln.dn) < ln.Dim {
		ln.dn = make([]float64, ln.Dim)
	}
	n := float64(ln.Dim)
	gg, bg := ln.Gain.Grad().Data, ln.Bias.Grad().Data
	for r := 0; r < dy.Rows; r++ {
		dyr, nr, dxr := dy.Row(r), ln.norm.Row(r), dx.Row(r)
		// Accumulate parameter grads and the two reduction terms.
		var sumDn, sumDnN float64
		dn := ln.dn[:ln.Dim]
		for i := range dyr {
			gg[i] += dyr[i] * nr[i]
			bg[i] += dyr[i]
			dn[i] = dyr[i] * ln.Gain.w.Data[i]
			sumDn += dn[i]
			sumDnN += dn[i] * nr[i]
		}
		inv := ln.invStd[r]
		for i := range dxr {
			dxr[i] = inv * (dn[i] - sumDn/n - nr[i]*sumDnN/n)
		}
	}
	return dx
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Bias} }

// Share implements Layer.
func (ln *LayerNorm) Share() Layer {
	return &LayerNorm{Dim: ln.Dim, Gain: ln.Gain, Bias: ln.Bias, Eps: ln.Eps}
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward implements Layer.
func (s *Sequential) Forward(x *Tensor) *Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy *Tensor) *Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Share implements Layer: every layer shared, in order.
func (s *Sequential) Share() Layer {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		layers[i] = l.Share()
	}
	return &Sequential{Layers: layers}
}

// Flatten reshapes an [rows, cols] tensor into [1, rows*cols] on the way
// forward and restores the shape on the way back. It lets the Q-network
// map per-token attention outputs to a single action-value vector.
type Flatten struct {
	rows, cols int

	fwd, bwd Tensor // reusable headers (storage is shared with the input)
}

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor) *Tensor {
	f.rows, f.cols = x.Rows, x.Cols
	f.fwd = Tensor{Rows: 1, Cols: x.Rows * x.Cols, Data: x.Data}
	return &f.fwd
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *Tensor) *Tensor {
	f.bwd = Tensor{Rows: f.rows, Cols: f.cols, Data: dy.Data}
	return &f.bwd
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Share implements Layer.
func (f *Flatten) Share() Layer { return &Flatten{} }
