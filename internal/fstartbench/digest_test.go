package fstartbench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlcr/internal/workload"
)

// workloadDigest is the sha256 of a workload's function IDs in listed
// order followed by its (Seq, function ID, arrival, exec) rows.
func workloadDigest(w workload.Workload) string {
	h := sha256.New()
	var b [32]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(w.Functions)))
	h.Write(b[:8])
	for _, f := range w.Functions {
		binary.LittleEndian.PutUint64(b[:], uint64(f.ID))
		h.Write(b[:8])
	}
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(inv.Seq))
		binary.LittleEndian.PutUint64(b[8:], uint64(inv.Fn.ID))
		binary.LittleEndian.PutUint64(b[16:], uint64(inv.Arrival))
		binary.LittleEndian.PutUint64(b[24:], uint64(inv.Exec))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// clones repeats the catalogue k times; copy c of function id gets ID
// c*13+id, as the repository benchmark's clone catalogue does.
func clones(k int) []*workload.Function {
	var fns []*workload.Function
	for c := 0; c < k; c++ {
		for _, f := range Functions() {
			f.ID += c * 13
			fns = append(fns, f)
		}
	}
	return fns
}

// TestInputDigestsPinned holds the generated traces every figure and
// the benchmark start from to digests recorded before Merge's sort was
// replaced: arrival order, tie order, jitter draws and the function
// list are all covered. In the 5 µs window, 1,247 of the 4,124 arrivals
// share their nanosecond with the previous arrival, of another function.
func TestInputDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		w    func() workload.Workload
		want string
	}{
		{"BuildOverall(1, 50000)", func() workload.Workload {
			return BuildOverall(1, OverallOptions{Count: 50000})
		}, "e5db51cf76beb4d65a49ee07a0c641af8dae5c9c9105a2c36566019770b6dd6b"},
		{"AzureMix.Build(day, 520 functions)", func() workload.Workload {
			a := workload.AzureMix{Rng: rand.New(rand.NewSource(7))}
			return a.Build("azure", clones(40), 0.1)
		}, "47ed26e35eb021f96533d7bd5fde9683b4c4dec22bd0dc6b5d550eee30471c2e"},
		{"AzureMix.Build(5µs, 520 functions)", func() workload.Workload {
			a := workload.AzureMix{Window: 5 * time.Microsecond, Rng: rand.New(rand.NewSource(7))}
			return a.Build("azure", clones(40), 0.1)
		}, "71476b6f8ac0aeb24ecf9f31d9de83ea0bcda4cbb47a99d690a56962a2243b89"},
	} {
		w := c.w()
		if got := workloadDigest(w); got != c.want {
			t.Errorf("%s: %d invocations, digest %s, want %s", c.name, len(w.Invocations), got, c.want)
		}
	}
}
