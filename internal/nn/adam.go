package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) with optional gradient
// clipping by global norm.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	// ClipNorm rescales gradients when their global L2 norm exceeds it;
	// 0 disables clipping.
	ClipNorm float64

	params []*Param
	m, v   []*Tensor
	step   int
}

// NewAdam creates an optimizer over the given parameters with standard
// defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([]*Tensor, len(params))
	a.v = make([]*Tensor, len(params))
	for i, p := range params {
		a.m[i] = NewTensor(p.w.Rows, p.w.Cols)
		a.v[i] = NewTensor(p.w.Rows, p.w.Cols)
	}
	return a
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *Adam) GradNorm() float64 {
	var s float64
	for _, p := range a.params {
		for _, g := range p.Grad().Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// Step applies one optimizer update and zeroes the gradients.
func (a *Adam) Step() {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / n
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad().Data {
			g *= scale
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mHat := m.Data[j] / bc1
			vHat := v.Data[j] / bc2
			p.w.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.markUpdated()
	}
	a.ZeroGrad()
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.Grad().Zero()
	}
}

// Steps returns the number of optimizer updates applied.
func (a *Adam) Steps() int { return a.step }
