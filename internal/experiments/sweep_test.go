package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mlcr/internal/cluster"
	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// sweepCase is one comparison shape a sweep determinism check runs.
type sweepCase struct {
	w        workload.Workload
	workers  int
	poolMB   float64
	routers  []string
	setups   []Setup
	evictors []string
}

// checkSweepDeterministic: a sweep is bit-identical at any parallelism,
// on one platform (the scheduler × evictor grid) and on a cluster (the
// router × scheduler grid); every cell ran, and a one-worker cell reads
// exactly what RunAll's platform run of the same pairing reads. It
// returns the sequential sweep.
func checkSweepDeterministic(t *testing.T, tc sweepCase) SweepResult {
	t.Helper()
	mk := func(par int) SweepResult {
		return Sweep(tc.w, tc.workers, tc.poolMB, tc.routers, tc.setups, tc.evictors, Options{Seed: 4, Parallelism: par})
	}
	seq := mk(1)
	for _, par := range []int{8, 0} {
		if got := mk(par); !reflect.DeepEqual(seq, got) {
			t.Fatalf("sweep diverged at parallelism %d", par)
		}
	}
	if want := max(1, len(tc.routers)) * len(tc.setups) * max(1, len(tc.evictors)); len(seq.Cells) != want {
		t.Fatalf("%d cells, want %d", len(seq.Cells), want)
	}
	for _, c := range seq.Cells {
		if c.Invocations != len(tc.w.Invocations) || c.TotalStartup <= 0 || c.ColdStarts == 0 || c.Busiest == 0 {
			t.Errorf("empty or partial cell %+v", c)
		}
	}
	if tc.workers > 1 {
		return seq
	}
	for i, c := range seq.Cells {
		s := tc.setups[i/len(tc.evictors)]
		s.Evictor = tc.evictors[i%len(tc.evictors)]
		res := RunAll([]Setup{s}, tc.w, tc.poolMB, Options{Seed: 4})[0]
		m := &res.Metrics
		want := SweepCell{Router: "round-robin", Setup: s.Name, Evictor: s.Evictor,
			Invocations: m.Count(), TotalStartup: m.TotalStartup(), P99Startup: m.StartupQuantile(0.99),
			ColdStarts: m.ColdStarts(), Evictions: res.PoolStats.Evictions, Rejections: res.PoolStats.Rejections,
			Expirations: res.PoolStats.Expirations, Busiest: m.Count(), Spread: 1}
		if c != want || c.AvgStartup() != m.AvgStartup() {
			t.Errorf("cell %+v, platform run reads %+v", c, want)
		}
	}
	return seq
}

// TestEvictionGridParallelDeterministic: the one-worker sweep over the
// grid schedulers × every evictor (mlcr-bench -fig grid, mlcr-sim
// -evictor all) is deterministic and is the platform run, cell for cell.
func TestEvictionGridParallelDeterministic(t *testing.T) {
	checkSweepDeterministic(t, sweepCase{
		w: fstartbench.Build(fstartbench.Uniform, 2, fstartbench.Options{Count: 100}), workers: 1, poolMB: 1200,
		setups: GridSetups(2), evictors: evict.Names(),
	})
}

// TestClusterGridDeterministic: the five-worker router × scheduler
// sweep is deterministic at any parallelism.
func TestClusterGridDeterministic(t *testing.T) {
	checkSweepDeterministic(t, sweepCase{
		w: fstartbench.Build(fstartbench.Peak, 3, fstartbench.Options{Count: 120}), workers: 5, poolMB: 5000,
		routers: []string{"hash", "p2c", "least-loaded"}, setups: []Setup{SetupOf("Greedy-Match", 4), SetupOf("Tabular-Q", 4)},
	})
}

// TestClusterGridSmoke: the full comparison mlcr-bench -fig cluster
// renders, every router × grid scheduler, fills every cell and renders
// the router and load-balance columns.
func TestClusterGridSmoke(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 5, fstartbench.Options{Count: 150})
	res := Sweep(w, 4, 4000, cluster.RouterNames(), GridSetups(2), nil, Options{Seed: 2})
	if want := len(cluster.RouterNames()) * len(GridSetups(2)); len(res.Cells) != want {
		t.Fatalf("sweep has %d cells, want %d", len(res.Cells), want)
	}
	found := false
	for _, c := range res.Cells {
		if c.TotalStartup <= 0 || c.Invocations != len(w.Invocations) {
			t.Errorf("%s/%s: empty or partial cell %+v", c.Router, c.Setup, c)
		}
		found = found || (c.Router == "p2c" && c.Setup == "Greedy-Match")
	}
	if !found {
		t.Fatal("no p2c/Greedy-Match cell")
	}
	tab := res.Table()
	if tab == nil || tab.Header[0] != "router" || tab.Header[len(tab.Header)-1] != "spread" {
		t.Fatalf("cluster table lacks the router and spread columns: %+v", tab)
	}
}

// TestOneWorkerClusterIsSimulator is the fact Sweep rests on: a
// one-worker cluster.Run replays exactly the platform run of the same
// setup, for every registered scheduler and a clone of a trained MLCR
// model, so a single-platform comparison needs no separate path.
func TestOneWorkerClusterIsSimulator(t *testing.T) {
	train := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 40})
	setups := []Setup{MLCRSetup(TrainMLCR(train, CalibrateLoose(train), nil, Options{Seed: 1, Episodes: 1}))}
	for _, name := range policy.Names() {
		setups = append(setups, SetupOf(name, 3))
	}
	for _, w := range []workload.Workload{
		fstartbench.Build(fstartbench.Uniform, 3, fstartbench.Options{}),
		fstartbench.Build(fstartbench.Peak, 3, fstartbench.Options{}),
		fstartbench.BuildOverall(3, fstartbench.OverallOptions{}),
	} {
		direct := RunAll(setups, w, 1500, Options{})
		for i, s := range setups {
			res := cluster.Run(cluster.Config{Workers: 1, PoolCapacityMB: 1500, NewScheduler: s.New}, w)
			if runner.Fingerprint(res.PerWorker[0]) != runner.Fingerprint(direct[i]) {
				t.Errorf("%s on %s: one-worker cluster run differs from the platform run", s.Name, w.Name)
			}
		}
	}
}

// TestSweepPanicsOnSharedScheduler: a setup whose factory hands out one
// stateful scheduler must panic in RunAll, and in Sweep whether the
// instance is shared between cells (one worker) or between the workers
// of one cell.
func TestSweepPanicsOnSharedScheduler(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 20})
	shared := policy.NewTabularQ(1)
	s := Setup{Name: "shared", New: func(int) platform.Scheduler { return shared }}
	for name, run := range map[string]func(){
		"RunAll":            func() { RunAll([]Setup{s, s}, w, 2000, Options{}) },
		"Sweep at 1 worker": func() { Sweep(w, 1, 2000, nil, []Setup{s}, []string{"lru", "clean"}, Options{}) },
		"Sweep at 4 workers": func() {
			Sweep(w, 4, 2000, nil, []Setup{s}, nil, Options{})
		},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shared between specs") {
					t.Errorf("%s: panic %v, want the shared-scheduler guard", name, r)
				}
			}()
			run()
		}()
	}
}
