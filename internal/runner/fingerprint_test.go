package runner_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/fstartbench"
	"mlcr/internal/metrics"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
)

// fmtFingerprint is the fingerprint's defining format: one fmt verb per
// field. Fingerprint must stay byte-identical to it, or every pinned
// sha256 in the tree changes meaning.
func fmtFingerprint(res *platform.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s created=%d peakRunning=%x peakAlive=%x\n",
		res.Policy, res.ContainersCreated, res.PeakRunningMB, res.PeakAliveMB)
	fmt.Fprintf(&b, "pool adds=%d evict=%d reject=%d expire=%d peak=%x\n",
		res.PoolStats.Adds, res.PoolStats.Evictions, res.PoolStats.Rejections,
		res.PoolStats.Expirations, res.PoolStats.PeakUsedMB)
	fmt.Fprintf(&b, "cleaner=%+v\n", res.CleanerOps)
	for _, s := range res.Metrics.Samples() {
		fmt.Fprintf(&b, "s %d %d %d %d %v %d\n", s.Seq, s.FnID, s.Arrival, s.Startup, s.Cold, s.Level)
	}
	for i := range res.PoolSeries.T {
		fmt.Fprintf(&b, "p %d %x\n", res.PoolSeries.T[i], res.PoolSeries.V[i])
	}
	return b.String()
}

func TestFingerprintMatchesFmtFormat(t *testing.T) {
	edge := &platform.RunResult{
		Policy:            "edge",
		ContainersCreated: 3,
		PeakRunningMB:     0.1,
		PeakAliveMB:       1536.75,
		PoolStats:         pool.Stats{Adds: 4, Evictions: 1, Rejections: 2, Expirations: 3, PeakUsedMB: 1e-9},
		CleanerOps:        container.VolumeOps{Repacks: 1, Unmounts: 2, Mounts: 3, UserWipes: 1},
	}
	for _, s := range []metrics.Sample{
		{}, // all-zero sample
		{Seq: 1, FnID: -7, Arrival: -time.Second, Startup: -1, Cold: true},
		{Seq: 2, FnID: 13, Arrival: time.Hour, Startup: 250 * time.Millisecond, Level: 1},
		{Seq: 3, FnID: 1 << 40, Arrival: math.MaxInt64, Startup: math.MinInt64, Level: 2},
		{Seq: 4, FnID: 5, Arrival: 1, Startup: 1, Level: 3},
	} {
		edge.Metrics.Record(s)
	}
	for i, v := range []float64{0, math.Copysign(0, -1), 0.1, -2.5, 1.0 / 3, 256, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		edge.PoolSeries.Observe(time.Duration(i-2)*time.Millisecond, v)
	}

	sched := policy.NewGreedyMatch()
	w := fstartbench.Build(fstartbench.HiSim, 7, fstartbench.Options{Count: 200})
	replay := platform.New(platform.Config{PoolCapacityMB: 1500, Evictor: sched.Evictor()}, sched).Run(w)

	for name, res := range map[string]*platform.RunResult{"empty": {}, "edge": edge, "replay": replay} {
		if got, want := runner.Fingerprint(res), fmtFingerprint(res); got != want {
			t.Errorf("%s: Fingerprint differs from the fmt format\n got: %q\nwant: %q", name, got, want)
		}
	}
	if by := replay.Metrics.ByLevel(); by[0] == 0 || by[1]+by[2] == 0 || by[3] == 0 {
		t.Fatalf("replay covers levels %v; want cold, cross-function and L3 starts", by)
	}
}
