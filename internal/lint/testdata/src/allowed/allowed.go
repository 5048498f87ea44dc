// Package allowed carries one violation for each of the six analyzers,
// each suppressed by an //mlcr:allow directive — the fixture behind the
// test that suppression works in both placements (same line and line
// above) and that the suppressed count is reported.
package allowed

import (
	"errors"
	"math/rand"
	"time"

	"mlcr/internal/image"
	"mlcr/internal/nn"
)

func mayFail() error { return errors.New("boom") }

// Suppressed exercises every analyzer with a directive on the line.
func Suppressed(p *nn.Param, m map[string]int) []string {
	t := time.Now() //mlcr:allow walltime fixture: trailing-directive placement
	_ = t

	//mlcr:allow detrand fixture: directive on the line above
	v := rand.Intn(3)
	_ = v

	var keys []string
	//mlcr:allow maprange fixture: order folded away downstream
	for k := range m {
		keys = append(keys, k)
	}

	p.W.Data[0] = 1 //mlcr:allow markupdated fixture: caller invalidates

	im := image.Image{Name: "raw"} //mlcr:allow newimage fixture: deliberate zero-value image
	_ = im

	mayFail() //mlcr:allow errcheck fixture: error intentionally dropped
	return keys
}
