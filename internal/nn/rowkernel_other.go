//go:build !amd64

package nn

// No row kernel on this architecture: MatMulInto and TMatMulInto run
// matMulAcc and tMatMulAcc.
var useAVX2 = false

func mulRowAVX2(dst, a *float64, astride int, w *float64, k, n int) {
	panic("nn: mulRowAVX2 without AVX2")
}
