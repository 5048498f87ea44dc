package platform_test

import (
	"fmt"
	"testing"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// TestInteractiveInvokeMatchesBatchRun is the differential oracle of the
// two drivers: feeding a workload one Invoke at a time and then draining
// must reproduce Run bit for bit. It covers every FStartBench workload
// plus the overall mix, at the Tight (0.2) and Moderate (0.5) fractions
// of Loose, under a multi-level scheduler (Greedy-Match) and a
// same-function one (LRU).
func TestInteractiveInvokeMatchesBatchRun(t *testing.T) {
	workloads := []workload.Workload{fstartbench.BuildOverall(1, fstartbench.OverallOptions{})}
	for _, name := range fstartbench.Names {
		workloads = append(workloads, fstartbench.Build(name, 1, fstartbench.Options{}))
	}
	for _, w := range workloads {
		loose := experiments.CalibrateLoose(w)
		for _, frac := range []float64{0.2, 0.5} {
			for _, name := range []string{"Greedy-Match", "LRU"} {
				t.Run(fmt.Sprintf("%s/%v/%s", w.Name, frac, name), func(t *testing.T) {
					run := func() *platform.Platform {
						s, _ := policy.New(name, 1)
						return platform.New(platform.Config{PoolCapacityMB: loose * frac, Evictor: s.Evictor()}, s)
					}
					batch := runner.Fingerprint(run().Run(w))
					p := run()
					for i := range w.Invocations {
						p.Invoke(&w.Invocations[i])
					}
					if inter := runner.Fingerprint(p.Drain()); inter != batch {
						t.Errorf("Invoke+Drain fingerprint differs from Run (%d vs %d bytes)", len(inter), len(batch))
					}
				})
			}
		}
	}
}
