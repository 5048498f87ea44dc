// Package maprange seeds deliberate nondeterministic map-iteration
// violations for the maprange analyzer fixture test.
package maprange

import (
	"fmt"
	"sort"

	"mlcr/internal/core"
	"mlcr/internal/image"
)

// BadAppend collects keys in randomized map order.
func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to a slice`
		keys = append(keys, k)
	}
	return keys
}

// GoodAppendSorted is the canonical idiom: collect, then sort.
func GoodAppendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BadFloatSum accumulates floats; rounding makes the total depend on
// iteration order.
func BadFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates floating-point values`
		sum += v
	}
	return sum
}

// GoodIntSum is exact and commutative — integer counters are safe.
func GoodIntSum(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// BadPrint writes output in map order.
func BadPrint(m map[string]int) {
	for k, v := range m { // want `writes output through fmt\.Println`
		fmt.Println(k, v)
	}
}

// BadEngineCall mutates engine state in map order.
func BadEngineCall(m map[string]*image.Image, fn *image.Image) {
	for _, img := range m { // want `calls into mlcr/internal/core\.Match`
		core.Match(fn, img)
	}
}

// GoodMinTracking is order-insensitive.
func GoodMinTracking(m map[string]int) int {
	best := -1
	for _, v := range m {
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}
