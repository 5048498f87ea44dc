package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// lossAndGrad evaluates L = Σ y⊙R for a fixed random weighting R, which
// makes dL/dy = R — a generic scalar objective for gradient checks.
func lossOf(y, r *Tensor) float64 {
	var s float64
	for i := range y.Data {
		s += y.Data[i] * r.Data[i]
	}
	return s
}

// checkGrads compares analytic gradients (input + params) of layer l at
// input x against central finite differences.
func checkGrads(t *testing.T, l Layer, x *Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	y := l.Forward(x)
	r := NewTensor(y.Rows, y.Cols).Randn(rng, 1)
	for _, p := range l.Params() {
		p.Grad().Zero()
	}
	dx := l.Backward(r)

	const h = 1e-6
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossOf(l.Forward(x), r)
		x.Data[i] = orig - h
		lm := lossOf(l.Forward(x), r)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, dx.Data[i], num)
		}
	}
	// Parameter gradients. Direct w.Data writes must markUpdated so the
	// forward pass drops its cached transpose (DESIGN.md §8).
	for _, p := range l.Params() {
		for i := range p.w.Data {
			orig := p.w.Data[i]
			p.w.Data[i] = orig + h
			p.markUpdated()
			lp := lossOf(l.Forward(x), r)
			p.w.Data[i] = orig - h
			p.markUpdated()
			lm := lossOf(l.Forward(x), r)
			p.w.Data[i] = orig
			p.markUpdated()
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad().Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.Grad().Data[i], num)
			}
		}
	}
}

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	x.Set(1, 2, 5)
	if x.At(1, 2) != 5 || x.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	y := x.Clone()
	y.Set(0, 0, 9)
	if x.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	row := x.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatalf("Row = %v", row)
	}
	x.Fill(2)
	x.Scale(3)
	if x.At(0, 0) != 6 {
		t.Fatal("Fill/Scale broken")
	}
	x.Zero()
	if x.At(1, 1) != 0 {
		t.Fatal("Zero broken")
	}
}

func TestTensorShapePanics(t *testing.T) {
	cases := []func(){
		func() { NewTensor(0, 3) },
		func() { FromSlice([]float64{1, 2}, 2, 2) },
		func() { MatMul(NewTensor(2, 3), NewTensor(2, 3)) },
		func() { AddInto(NewTensor(2, 3), NewTensor(3, 2)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewTensor(3, 4).Randn(rng, 1)
	b := NewTensor(5, 4).Randn(rng, 1)
	// a×bᵀ via MatMulT must equal manual transpose multiply.
	bt := NewTensor(4, 5)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	got := MatMulT(a, b)
	want := MatMul(a, bt)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatal("MatMulT disagrees with explicit transpose")
		}
	}
	// aᵀ×c via TMatMul.
	c := NewTensor(3, 6).Randn(rng, 1)
	at := NewTensor(4, 3)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got2 := TMatMul(a, c)
	want2 := MatMul(at, c)
	for i := range want2.Data {
		if math.Abs(got2.Data[i]-want2.Data[i]) > 1e-12 {
			t.Fatal("TMatMul disagrees with explicit transpose")
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	y := SoftmaxRows(x)
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range y.Row(r) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	if !(y.At(0, 2) > y.At(0, 1) && y.At(0, 1) > y.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	if math.Abs(y.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatal("uniform row not 1/3 each (overflow?)")
	}

	// softmaxRow takes exp(v-max) = 1 without calling math.Exp when
	// v-max is ±0: bit for bit the definition, on ties, signed zeros,
	// infinities and NaN too.
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	special := FromSlice([]float64{
		2, 2, negZero, 0, -800, 1,
		0, negZero, 0, negZero, 0, negZero,
		inf, 1, inf, -inf, 0, 3,
		-inf, -inf, 1, -inf, -2, -1,
		math.NaN(), 1, 2, 3, 4, 5,
	}, 5, 6)
	want := NewTensor(5, 6)
	for r := 0; r < special.Rows; r++ {
		row, max := special.Row(r), special.At(r, 0)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range row {
			want.Set(r, i, math.Exp(v-max))
			sum += want.At(r, i)
		}
		for i := range row {
			want.Set(r, i, want.At(r, i)/sum)
		}
	}
	equalTensors(t, "SoftmaxRows on specials", SoftmaxRows(special), want)
}

func TestArgmax(t *testing.T) {
	if got := Argmax(RowVector([]float64{1, 5, 3})); got != 1 {
		t.Fatalf("Argmax = %d, want 1", got)
	}
	if got := Argmax(RowVector([]float64{-2, -1, -3})); got != 1 {
		t.Fatalf("Argmax = %d, want 1", got)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("lin", 4, 3, rng)
	x := NewTensor(2, 4).Randn(rng, 1)
	checkGrads(t, l, x, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewTensor(3, 4).Randn(rng, 1)
	checkGrads(t, &ReLU{}, x, 1e-5)
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ln := NewLayerNorm("ln", 6)
	// Perturb gain/bias away from identity for a stronger check.
	ln.Gain.w.Randn(rng, 1)
	ln.Bias.w.Randn(rng, 1)
	x := NewTensor(3, 6).Randn(rng, 1)
	checkGrads(t, ln, x, 1e-4)
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMultiHeadAttention("mha", 8, 2, rng)
	x := NewTensor(5, 8).Randn(rng, 1)
	checkGrads(t, m, x, 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := &Sequential{Layers: []Layer{
		NewLinear("l1", 4, 8, rng),
		&ReLU{},
		NewLayerNorm("ln", 8),
		NewMultiHeadAttention("mha", 8, 2, rng),
		&Flatten{},
		NewLinear("l2", 3*8, 5, rng),
	}}
	x := NewTensor(3, 4).Randn(rng, 1)
	checkGrads(t, s, x, 1e-4)
}

func TestAttentionShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible heads did not panic")
		}
	}()
	NewMultiHeadAttention("bad", 7, 2, rng)
}

func TestAdamConvergesOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Learn y = xW* for a fixed random W*.
	wStar := NewTensor(4, 2).Randn(rng, 1)
	l := NewLinear("fit", 4, 2, rng)
	opt := NewAdam(l.Params(), 0.05)
	var last float64
	for step := 0; step < 400; step++ {
		x := NewTensor(8, 4).Randn(rng, 1)
		want := MatMul(x, wStar)
		got := l.Forward(x)
		// L = ½Σ(got-want)² → dL/dgot = got-want
		diff := got.Clone()
		var loss float64
		for i := range diff.Data {
			diff.Data[i] -= want.Data[i]
			loss += diff.Data[i] * diff.Data[i] / 2
		}
		l.Backward(diff)
		opt.Step()
		last = loss
	}
	if last > 1e-3 {
		t.Fatalf("regression loss after training = %v, want < 1e-3", last)
	}
	if opt.Steps() != 400 {
		t.Fatalf("Steps = %d", opt.Steps())
	}
}

func TestAdamClipNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear("clip", 2, 2, rng)
	opt := NewAdam(l.Params(), 0.1)
	opt.ClipNorm = 1e-6
	before := append([]float64(nil), l.Weight.w.Data...)
	l.Weight.Grad().Fill(1e9)
	opt.Step()
	for i := range before {
		// With tiny clip norm the update is bounded by ~lr.
		if math.Abs(l.Weight.w.Data[i]-before[i]) > 0.2 {
			t.Fatalf("clipped update too large: %v -> %v", before[i], l.Weight.w.Data[i])
		}
	}
	// Gradients must be zeroed after Step.
	for _, g := range l.Weight.Grad().Data {
		if g != 0 {
			t.Fatal("gradients not zeroed after Step")
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := &Sequential{Layers: []Layer{
		NewLinear("l1", 3, 4, rng),
		NewLayerNorm("ln", 4),
		NewMultiHeadAttention("mha", 4, 2, rng),
	}}
	var buf bytes.Buffer
	if err := Save(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := &Sequential{Layers: []Layer{
		NewLinear("l1", 3, 4, rng),
		NewLayerNorm("ln", 4),
		NewMultiHeadAttention("mha", 4, 2, rng),
	}}
	if err := Load(&buf, b.Params()); err != nil {
		t.Fatal(err)
	}
	x := NewTensor(2, 3).Randn(rng, 1)
	ya, yb := a.Forward(x), b.Forward(x)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("loaded model diverges from saved model")
		}
	}
}

// loadTarget is a two-layer model to load into, and a copy of its
// weights to prove a refused Load changed none of them.
func loadTarget(rng *rand.Rand, in int) (params []*Param, before [][]float64) {
	params = append(NewLinear("first", 2, 2, rng).Params(), NewLinear("l", in, 4, rng).Params()...)
	for _, p := range params {
		before = append(before, append([]float64(nil), p.w.Data...))
	}
	return params, before
}

func assertUntouched(t *testing.T, params []*Param, before [][]float64) {
	t.Helper()
	for pi, p := range params {
		for i, v := range p.w.Data {
			if v != before[pi][i] {
				t.Fatalf("refused Load overwrote %s[%d]", p.Name, i)
			}
		}
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	saved, _ := loadTarget(rng, 3)
	var buf bytes.Buffer
	if err := Save(&buf, saved); err != nil {
		t.Fatal(err)
	}
	// "first" matches and comes first; the mismatch on "l" must stop the
	// Load before "first" is overwritten.
	params, before := loadTarget(rng, 4)
	if err := Load(&buf, params); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	assertUntouched(t, params, before)
}

func TestLoadRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rng := rand.New(rand.NewSource(16))
		saved, _ := loadTarget(rng, 3)
		saved[3].w.Data[2] = bad // l.bias
		var buf bytes.Buffer
		if err := Save(&buf, saved); err != nil {
			t.Fatal(err)
		}
		params, before := loadTarget(rng, 3)
		err := Load(&buf, params)
		if err == nil || !strings.Contains(err.Error(), `"l.bias"`) {
			t.Fatalf("snapshot holding %v: Load = %v, want an error naming l.bias", bad, err)
		}
		assertUntouched(t, params, before)
	}
}

func TestLoadRejectsMissingParam(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var buf bytes.Buffer
	if err := Save(&buf, NewLinear("a", 2, 2, rng).Params()); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, NewLinear("b", 2, 2, rng).Params()); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestSaveRejectsDuplicateNames(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := NewLinear("dup", 2, 2, rng).Params()
	p = append(p, NewLinear("dup", 2, 2, rng).Params()...)
	var buf bytes.Buffer
	if err := Save(&buf, p); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

// FuzzNNLoad: on any input Load never panics, and either refuses it
// with the parameters bit-for-bit as they were, or accepts it with
// every value finite. Two targets are loaded from each input: the layer
// stack of TestSaveLoadRoundtrip and loadTarget's two Linear layers. The
// seeds are a Save of each, plus the rejection tests' snapshots.
func FuzzNNLoad(f *testing.F) {
	save := func(params []*Param) {
		var buf bytes.Buffer
		if err := Save(&buf, params); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	stack := func(rng *rand.Rand) []*Param {
		return (&Sequential{Layers: []Layer{
			NewLinear("l1", 3, 4, rng),
			NewLayerNorm("ln", 4),
			NewMultiHeadAttention("mha", 4, 2, rng),
		}}).Params()
	}
	rng := rand.New(rand.NewSource(10))
	save(stack(rng))
	valid, _ := loadTarget(rng, 3)
	save(valid)
	wide, _ := loadTarget(rng, 4)
	save(wide) // shape mismatch against loadTarget(rng, 3)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p, _ := loadTarget(rng, 3)
		p[3].w.Data[2] = bad
		save(p)
	}
	save(NewLinear("a", 2, 2, rng).Params()) // missing every wanted name
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(17))
		target, _ := loadTarget(rng, 3)
		for _, params := range [][]*Param{stack(rng), target} {
			var before [][]uint64
			for _, p := range params {
				bits := make([]uint64, len(p.w.Data))
				for i, v := range p.w.Data {
					bits[i] = math.Float64bits(v)
				}
				before = append(before, bits)
			}
			err := Load(bytes.NewReader(data), params)
			for pi, p := range params {
				for i, v := range p.w.Data {
					if err != nil && math.Float64bits(v) != before[pi][i] {
						t.Fatalf("refused Load (%v) changed %s[%d]", err, p.Name, i)
					}
					if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
						t.Fatalf("accepted Load left %s[%d] = %v", p.Name, i, v)
					}
				}
			}
		}
	})
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := NewLinear("a", 3, 3, rng)
	b := NewLinear("b", 3, 3, rng)
	CopyParams(b.Params(), a.Params())
	for i := range a.Weight.w.Data {
		if b.Weight.w.Data[i] != a.Weight.w.Data[i] {
			t.Fatal("CopyParams did not copy")
		}
	}
	// Mutating the source must not affect the copy.
	a.Weight.w.Data[0] += 1
	if b.Weight.w.Data[0] == a.Weight.w.Data[0] {
		t.Fatal("CopyParams aliases storage")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewLinear("d", 5, 5, rand.New(rand.NewSource(42)))
	b := NewLinear("d", 5, 5, rand.New(rand.NewSource(42)))
	for i := range a.Weight.w.Data {
		if a.Weight.w.Data[i] != b.Weight.w.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}
