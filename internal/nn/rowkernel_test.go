package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The row kernel's oracle is the pure-Go definition: MatMul runs
// matMulAcc and TMatMul runs tMatMulAcc whatever the CPU, so comparing
// the *Into forms against them compares assembly against Go wherever the
// kernel is selected.

var (
	kernelNs   = []int{1, 3, 4, 5, 8, 12, 13, 24, 28, 48, 72, 77} // every block path (24/8/4) and every tail
	kernelKs   = []int{1, 7, 24, 39, 144}
	kernelRows = []int{1, 5, 6}
)

// dirty returns a rows×cols tensor full of NaN, so an element the op
// under test failed to write cannot pass for a sum.
func dirty(rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	t.Fill(math.NaN())
	return t
}

// checkProducts compares both kernel-backed products of a (rows×k) and
// w (k×n) with their definitions: a×w, and (aᵀ)ᵀ×w taken through
// TMatMulInto's strided walk over the transposed copy of a.
func checkProducts(t testing.TB, name string, a, w *Tensor) {
	t.Helper()
	equalTensors(t, name+" MatMulInto", MatMulInto(dirty(a.Rows, w.Cols), a, w), MatMul(a, w))
	at := NewTensor(a.Cols, a.Rows)
	TransposeInto(at, a)
	equalTensors(t, name+" TMatMulInto", TMatMulInto(dirty(a.Rows, w.Cols), at, w), TMatMul(at, w))
}

// plant overwrites a spread of elements with the values a sum treats
// specially: exact zeros of both signs (skipped in a, added in w), a NaN
// and both infinities.
func plant(x *Tensor, rng *rand.Rand) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0, 0}
	for _, v := range specials {
		x.Data[rng.Intn(len(x.Data))] = v
	}
}

func TestMatMulKernelMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, rows := range kernelRows {
		for _, k := range kernelKs {
			for _, n := range kernelNs {
				a := NewTensor(rows, k).Randn(rng, 1)
				w := NewTensor(k, n).Randn(rng, 1)
				checkProducts(t, "dense", a, w)

				// Exact zeros and -0 only: finite sums, every skip taken.
				for i := 0; i < len(a.Data); i += 3 {
					a.Data[i] = math.Copysign(0, float64(i%2)-0.5)
				}
				w.Data[rng.Intn(len(w.Data))] = math.Copysign(0, -1)
				checkProducts(t, "zeros", a, w)

				plant(a, rng)
				checkProducts(t, "specials in a", a, w)
				plant(w, rng)
				checkProducts(t, "specials in a and w", a, w)

				// An all-zero left operand skips every product, even
				// 0×Inf and 0×NaN: the rows come out +0.
				a.Zero()
				got := MatMulInto(dirty(rows, n), a, w)
				checkProducts(t, "all-zero a", a, w)
				for i, v := range got.Data {
					if math.Float64bits(v) != 0 {
						t.Fatalf("all-zero a: %dx%d·%dx%d element %d = %v, want +0", rows, k, k, n, i, v)
					}
				}
			}
		}
	}
}

// goPath runs f with the dispatch forced to the pure-Go products, which
// is how a machine with AVX2 executes the fallback.
func goPath(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}

// TestGoPathFallback re-runs the kernel suite and the workspace pins on
// the path other CPUs and architectures take.
func TestGoPathFallback(t *testing.T) {
	goPath(func() {
		t.Run("products", TestMatMulKernelMatchesDefinition)
		t.Run("into ops", TestIntoOpsMatchAllocatingOps)
		t.Run("workspace network", TestWorkspaceNetworkMatchesFreshNetwork)
		t.Run("zero allocs", TestForwardBackwardZeroAllocs)
	})
}

// netRun is what a few forward/backward cycles of the Q-network-shaped
// stack leave behind: every output, every input gradient and the
// accumulated parameter gradients.
func netRun(steps int) []*Tensor {
	net := buildNet(42)
	rng := rand.New(rand.NewSource(43))
	var out []*Tensor
	for s := 0; s < steps; s++ {
		x := NewTensor(5, 12).Randn(rng, 1)
		dy := NewTensor(1, 6) // the DQN's one-hot action gradient
		dy.Data[s%6] = rng.NormFloat64()
		out = append(out, net.Forward(x).Clone(), net.Backward(dy).Clone())
	}
	for _, p := range net.Params() {
		out = append(out, p.Grad)
	}
	return out
}

// TestNetworkBitIdenticalAcrossPaths: a whole network, forward and
// backward, gives the same bits through the kernel and through the Go
// products — the contract that lets every pinned fingerprint survive the
// kernel and lets a model trained on one CPU serve on another.
func TestNetworkBitIdenticalAcrossPaths(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: there is one path")
	}
	asm := netRun(4)
	var pure []*Tensor
	goPath(func() { pure = netRun(4) })
	for i := range asm {
		equalTensors(t, "network tensor", asm[i], pure[i])
	}
}

// fuzzOperands decodes fuzz bytes into a product: three shape bytes, then
// two bytes per value, cycled. A high byte of 0x80 selects a special
// value; anything else is a sixteen-bit integer over three, so products
// and sums round.
func fuzzOperands(data []byte) (a, w *Tensor) {
	if len(data) < 3 {
		return nil, nil
	}
	rows, k, n := int(data[0])%6+1, int(data[1])%160+1, int(data[2])%80+1
	vals := data[3:]
	next := 0
	value := func() float64 {
		if len(vals) < 2 {
			return 0
		}
		lo, hi := vals[next%len(vals)], vals[(next+1)%len(vals)]
		next += 2
		if hi == 0x80 {
			return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}[lo%7]
		}
		return float64(int16(uint16(lo)|uint16(hi)<<8)) / 3
	}
	a, w = NewTensor(rows, k), NewTensor(k, n)
	for i := range a.Data {
		a.Data[i] = value()
	}
	for i := range w.Data {
		w.Data[i] = value()
	}
	return a, w
}

// FuzzMatMulKernel: assembly against the Go definition on fuzzed shapes
// and values. The seed corpus is the shape grid of the table test.
func FuzzMatMulKernel(f *testing.F) {
	for _, rows := range kernelRows {
		for _, k := range kernelKs {
			for _, n := range kernelNs {
				f.Add([]byte{byte(rows - 1), byte(k - 1), byte(n - 1), 7, 0, 0, 0x80, 251, 255, 2, 0x80, 40, 1, 3, 0x80, 0, 0})
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, w := fuzzOperands(data)
		if a == nil {
			return
		}
		checkProducts(t, "fuzz", a, w)
	})
}
