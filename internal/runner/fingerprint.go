package runner

import (
	"fmt"
	"strconv"
	"strings"

	"mlcr/internal/platform"
)

// Fingerprint serializes every observable field of a run result — the
// per-invocation samples, pool statistics, cleaner operations, memory
// peaks, the pool-memory time series and the container count — into a
// deterministic byte string. Two results are bit-identical iff their
// fingerprints are equal; the determinism tests compare sequential and
// parallel sweeps through it.
//
// The per-sample lines are `s Seq FnID Arrival Startup Cold Level` and
// `p T V` in fmt's %d / %v / %x renderings, written with strconv into
// a pre-sized builder: trace-scale replays fingerprint every result,
// where a Fprintf per line plus builder doubling is a quarter of the
// replay's own allocation.
func Fingerprint(res *platform.RunResult) string {
	samples := res.Metrics.Samples()
	var b strings.Builder
	b.Grow(256 + 48*len(samples) + 40*len(res.PoolSeries.T))
	fmt.Fprintf(&b, "policy=%s created=%d peakRunning=%x peakAlive=%x\n",
		res.Policy, res.ContainersCreated, res.PeakRunningMB, res.PeakAliveMB)
	fmt.Fprintf(&b, "pool adds=%d evict=%d reject=%d expire=%d peak=%x\n",
		res.PoolStats.Adds, res.PoolStats.Evictions, res.PoolStats.Rejections,
		res.PoolStats.Expirations, res.PoolStats.PeakUsedMB)
	fmt.Fprintf(&b, "cleaner=%+v\n", res.CleanerOps)
	var scratch [128]byte
	for _, s := range samples {
		line := append(scratch[:0], "s "...)
		line = strconv.AppendInt(line, int64(s.Seq), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(s.FnID), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(s.Arrival), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(s.Startup), 10)
		line = append(line, ' ')
		line = strconv.AppendBool(line, s.Cold)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(s.Level), 10)
		b.Write(append(line, '\n'))
	}
	for i, t := range res.PoolSeries.T {
		line := append(scratch[:0], "p "...)
		line = strconv.AppendInt(line, int64(t), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, res.PoolSeries.V[i], 'x', -1, 64)
		b.Write(append(line, '\n'))
	}
	return b.String()
}
