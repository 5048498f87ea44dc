package experiments

import (
	"reflect"
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/runner"
)

// sweepFingerprints runs a 5-policy sweep over two workloads at the
// given parallelism and returns one fingerprint per run, in spec order.
func sweepFingerprints(t *testing.T, parallelism int) []string {
	t.Helper()
	setups := append(Baselines(), SetupOf("Cost-Greedy", 0))
	var out []string
	for _, seed := range []int64{3, 9} {
		w := fstartbench.Build(fstartbench.Uniform, seed, fstartbench.Options{Count: 120})
		results := RunAll(setups, w, 1500, Options{Parallelism: parallelism})
		for _, res := range results {
			out = append(out, runner.Fingerprint(res))
		}
	}
	return out
}

// TestRunAllParallelMatchesSequential: the experiments sweep API must be
// bit-identical at any parallelism (5 policies × 2 workloads).
func TestRunAllParallelMatchesSequential(t *testing.T) {
	seq := sweepFingerprints(t, 1)
	for _, par := range []int{8, 0} {
		got := sweepFingerprints(t, par)
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("parallelism %d diverged from sequential sweep", par)
		}
	}
}

// TestMLCRSetupFreshPerRun: every New call on an MLCR setup must return
// a distinct scheduler instance — handing out the trained original would
// let concurrent runs share its mutable inference state.
func TestMLCRSetupFreshPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 40})
	loose := CalibrateLoose(w)
	s := TrainMLCR(w, loose, nil, Options{Seed: 1, Episodes: 2})
	setup := MLCRSetup(s)
	a, b := setup.New(0), setup.New(0)
	if a == s || b == s {
		t.Fatal("MLCRSetup handed out the trained original")
	}
	if a == b {
		t.Fatal("MLCRSetup returned the same instance twice")
	}
	// Clones decide exactly like the original would have.
	res := RunAll([]Setup{setup, setup}, w, loose*0.5, Options{})
	if runner.Fingerprint(res[0]) != runner.Fingerprint(res[1]) {
		t.Fatal("two MLCR clones diverged on the same workload")
	}
}

// TestTuneMarginParallelMatchesSequential: concurrent margin search must
// select the margin the sequential loop selected, and leave the
// scheduler configured with it.
func TestTuneMarginParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	w := fstartbench.Build(fstartbench.HiSim, 2, fstartbench.Options{Count: 80})
	loose := CalibrateLoose(w)
	s := TrainMLCR(w, loose, nil, Options{Seed: 2, Episodes: 2})

	seq := TuneMargin(s, w, loose*0.5, 1)
	if got := s.DeviationMargin(); got != seq {
		t.Fatalf("sequential tune left margin %v, selected %v", got, seq)
	}
	for _, par := range []int{8, 0} {
		if got := TuneMargin(s, w, loose*0.5, par); got != seq {
			t.Fatalf("parallelism %d selected margin %v, sequential selected %v", par, got, seq)
		}
		if got := s.DeviationMargin(); got != seq {
			t.Fatalf("parallelism: scheduler left with margin %v, want %v", got, seq)
		}
	}
}

// TestFig10ParallelDeterministic: a whole figure driver must produce the
// identical result structure at any parallelism (training, margin
// tuning and the evaluation sweep all flow through the harness).
func TestFig10ParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	seqOpts := tiny()
	seqOpts.Parallelism = 1
	parOpts := tiny()
	parOpts.Parallelism = 0
	seq := NewStudy(seqOpts).Fig10()
	par := NewStudy(parOpts).Fig10()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig10 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}
