package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// buildNet constructs the Q-network-shaped stack used by the workspace
// tests: every layer type, wired as in drl.NewQNetwork.
func buildNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	const tokens, width, dim, heads, hidden, actions = 5, 12, 16, 2, 24, 6
	return &Sequential{Layers: []Layer{
		NewLinear("embed", width, dim, rng),
		NewLayerNorm("ln1", dim),
		NewMultiHeadAttention("attn1", dim, heads, rng),
		NewLayerNorm("ln2", dim),
		NewMultiHeadAttention("attn2", dim, heads, rng),
		NewLayerNorm("ln3", dim),
		&Flatten{},
		NewLinear("fc1", tokens*dim, hidden, rng),
		&ReLU{},
		NewLinear("fc2", hidden, actions, rng),
	}}
}

// equalTensors fails unless a and b agree in shape and, element by
// element, in IEEE bits — NaNs aside, which only have to both be NaN
// (which operand's payload a NaN×NaN keeps is not part of the contract).
func equalTensors(t testing.TB, name string, a, b *Tensor) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, av := range a.Data {
		bv := b.Data[i]
		if math.Float64bits(av) != math.Float64bits(bv) && !(math.IsNaN(av) && math.IsNaN(bv)) {
			t.Fatalf("%s: element %d = %v (%#x) != %v (%#x) (must be bit-identical)",
				name, i, av, math.Float64bits(av), bv, math.Float64bits(bv))
		}
	}
}

// TestIntoOpsMatchAllocatingOps locks the bit-identity contract of every
// in-place op against its allocating original, including inputs with
// exact zeros (the zero-skip fast path).
func TestIntoOpsMatchAllocatingOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewTensor(4, 6).Randn(rng, 1)
	b := NewTensor(6, 5).Randn(rng, 1)
	// Sprinkle exact zeros to exercise the skip branches.
	a.Data[1], a.Data[7], a.Data[20] = 0, 0, 0

	equalTensors(t, "MatMulInto", MatMulInto(NewTensor(4, 5), a, b), MatMul(a, b))

	c := NewTensor(3, 6).Randn(rng, 1)
	equalTensors(t, "MatMulTInto", MatMulTInto(NewTensor(4, 3), a, c), MatMulT(a, c))

	d := NewTensor(4, 3).Randn(rng, 1)
	d.Data[0], d.Data[5] = 0, 0
	equalTensors(t, "TMatMulInto", TMatMulInto(NewTensor(6, 3), a, d), TMatMul(a, d))

	s := NewTensor(3, 4).Randn(rng, 2)
	equalTensors(t, "SoftmaxRowsInto", SoftmaxRowsInto(NewTensor(3, 4), s), SoftmaxRows(s))

	y := SoftmaxRows(s)
	dy := NewTensor(3, 4).Randn(rng, 1)
	equalTensors(t, "softmaxBackwardRowsInto",
		softmaxBackwardRowsInto(NewTensor(3, 4), y, dy), softmaxBackwardRows(y, dy))

	tr := NewTensor(6, 4)
	TransposeInto(tr, a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if tr.At(j, i) != a.At(i, j) {
				t.Fatalf("TransposeInto(%d,%d) mismatch", i, j)
			}
		}
	}

	// The forward products: a×b by MatMulInto against the untransposed b
	// must reproduce MatMul bit-for-bit, across a 4-wide column block and
	// the remainder tail, with and without exact zeros in a.
	for _, cols := range []int{1, 3, 4, 5, 9} {
		bb := NewTensor(6, cols).Randn(rng, 1)
		equalTensors(t, "MatMulInto/untransposed", MatMulInto(NewTensor(4, cols), a, bb), MatMul(a, bb))
	}
	az := NewTensor(4, 6) // all-zero lhs: dst rows must come out +0
	bb := NewTensor(6, 5).Randn(rng, 1)
	equalTensors(t, "MatMulInto/zero-lhs", MatMulInto(NewTensor(4, 5), az, bb), MatMul(az, bb))
}

// TestCachedTransposeMatMulMatchesMatMulT locks the identity the Linear
// and attention backward passes rely on: dy × Wᵀ computed by MatMulInto
// against a cached transpose is bit-identical to MatMulT(dy, W), for
// dense and one-hot (mostly exact-zero) dy alike.
func TestCachedTransposeMatMulMatchesMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := NewTensor(7, 9).Randn(rng, 1)
	wT := NewTensor(9, 7)
	TransposeInto(wT, w)

	dense := NewTensor(2, 9).Randn(rng, 1)
	equalTensors(t, "dense dy", MatMulInto(NewTensor(2, 7), dense, wT), MatMulT(dense, w))

	oneHot := NewTensor(1, 9)
	oneHot.Data[4] = -1.75
	equalTensors(t, "one-hot dy", MatMulInto(NewTensor(1, 7), oneHot, wT), MatMulT(oneHot, w))
}

// TestWorkspaceNetworkMatchesFreshNetwork runs a reused-workspace network
// through several forward/backward cycles and checks outputs and
// accumulated gradients stay bit-identical to an identically seeded fresh
// network evaluating each input exactly once.
func TestWorkspaceNetworkMatchesFreshNetwork(t *testing.T) {
	const steps = 4
	warm := buildNet(42)
	rng := rand.New(rand.NewSource(43))
	inputs := make([]*Tensor, steps)
	grads := make([]*Tensor, steps)
	for i := range inputs {
		inputs[i] = NewTensor(5, 12).Randn(rng, 1)
		grads[i] = NewTensor(1, 6).Randn(rng, 1)
	}
	for s := 0; s < steps; s++ {
		fresh := buildNet(42) // clean workspaces every time
		fy := fresh.Forward(inputs[s].Clone())
		fdx := fresh.Backward(grads[s].Clone())

		wy := warm.Forward(inputs[s])
		equalTensors(t, "forward output", wy, fy)
		wdx := warm.Backward(grads[s])
		equalTensors(t, "input gradient", wdx, fdx)
		for pi, p := range warm.Params() {
			equalTensors(t, "grad "+p.Name, p.Grad, fresh.Params()[pi].Grad)
			p.Grad.Zero()
		}
	}
}

// TestTransposeCacheInvalidatedOnStep verifies the cached weight
// transposes are refreshed after every weight write — an optimizer
// update, Load and CopyParams — on a Linear layer and on a
// MultiHeadAttention, which caches the transposes of all four
// projections: backward through the cached path must match, bit for
// bit, a fresh layer holding the current weights.
func TestTransposeCacheInvalidatedOnStep(t *testing.T) {
	layers := []struct {
		name string
		mk   func(seed int64) Layer
	}{
		{"linear", func(seed int64) Layer { return NewLinear("l", 6, 6, rand.New(rand.NewSource(seed))) }},
		{"attention", func(seed int64) Layer { return NewMultiHeadAttention("a", 6, 2, rand.New(rand.NewSource(seed))) }},
	}
	for _, layer := range layers {
		for _, write := range []string{"adam", "load", "copy"} {
			t.Run(layer.name+"/"+write, func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				l := layer.mk(11)
				x := NewTensor(3, 6).Randn(rng, 1)
				dy := NewTensor(3, 6).Randn(rng, 1)
				l.Forward(x)
				l.Backward(dy) // populate and cache the transposes

				switch write {
				case "adam":
					NewAdam(l.Params(), 0.05).Step()
				case "load":
					var buf bytes.Buffer
					if err := Save(&buf, layer.mk(12).Params()); err != nil {
						t.Fatal(err)
					}
					if err := Load(&buf, l.Params()); err != nil {
						t.Fatal(err)
					}
				case "copy":
					CopyParams(l.Params(), layer.mk(12).Params())
				}

				fresh := layer.mk(13)
				for i, p := range fresh.Params() {
					copy(p.w.Data, l.Params()[i].w.Data)
				}
				l.Forward(x)
				fresh.Forward(x)
				equalTensors(t, "post-update dx", l.Backward(dy), fresh.Backward(dy))
			})
		}
	}
}

// TestShareReadsTheSameParams: a shared network holds the original's
// *Params themselves and none of its workspaces, computes the same
// forward and backward bits, and sees a weight write made through the
// original (its own transpose caches revalidate on the version).
func TestShareReadsTheSameParams(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := buildNet(21)
	x := NewTensor(5, 12).Randn(rng, 1)
	dy := NewTensor(1, 6).Randn(rng, 1)
	net.Forward(x)
	net.Backward(dy) // the original's workspaces and transposes are warm

	sh := net.Share().(*Sequential)
	for i, p := range net.Params() {
		if sh.Params()[i] != p {
			t.Fatalf("shared param %d is %p, want the original's %p", i, sh.Params()[i], p)
		}
	}
	for i, l := range sh.Layers {
		if l == net.Layers[i] {
			t.Fatalf("layer %d is the original instance, not a share", i)
		}
	}
	if sh.Layers[0].(*Linear).y != nil || sh.Layers[2].(*MultiHeadAttention).q != nil {
		t.Fatal("a shared layer starts with the original's workspaces")
	}
	for step := 0; step < 2; step++ {
		equalTensors(t, "forward", sh.Forward(x).Clone(), net.Forward(x))
		equalTensors(t, "backward", sh.Backward(dy).Clone(), net.Backward(dy))
		NewAdam(net.Params(), 0.05).Step() // seen by the share on the next step
	}
}

// TestForwardBackwardZeroAllocs asserts the tentpole contract: after one
// warm-up cycle, Forward and Forward+Backward of the full layer stack
// perform zero heap allocations.
func TestForwardBackwardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	net := buildNet(3)
	rng := rand.New(rand.NewSource(4))
	x := NewTensor(5, 12).Randn(rng, 1)
	dy := NewTensor(1, 6).Randn(rng, 1)
	net.Forward(x)
	net.Backward(dy)

	if n := testing.AllocsPerRun(50, func() { net.Forward(x) }); n != 0 {
		t.Fatalf("steady-state Forward allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		net.Forward(x)
		net.Backward(dy)
	}); n != 0 {
		t.Fatalf("steady-state Forward+Backward allocates %v per run, want 0", n)
	}
}

// TestWorkspaceBuffersDoNotLeakState reruns a smaller input after a
// larger one: reshaped buffers must not leak stale elements.
func TestWorkspaceBuffersDoNotLeakState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLinear("l", 3, 2, rng)
	big := NewTensor(4, 3).Randn(rng, 1)
	small := NewTensor(1, 3).Randn(rng, 1)
	l.Forward(big)
	l.Backward(NewTensor(4, 2).Randn(rng, 1))
	for _, p := range l.Params() {
		p.Grad.Zero()
	}

	got := l.Forward(small).Clone()
	fresh := NewLinear("l", 3, 2, rand.New(rand.NewSource(21)))
	equalTensors(t, "shrunk forward", got, fresh.Forward(small))
}
