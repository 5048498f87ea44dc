package nn

// useAVX2 selects the assembly row kernel under MatMulInto and
// TMatMulInto; probed once, never configured. Tests clear it to run the
// pure-Go definition on the same machine.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func mulRowAVX2(dst, a *float64, astride int, w *float64, k, n int)
