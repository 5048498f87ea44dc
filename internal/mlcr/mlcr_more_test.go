package mlcr

import (
	"math"
	"testing"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

// TestMarginGateDegradesToCostGreedy verifies the safety property of the
// deviation margin: with a prohibitively large margin, an MLCR scheduler
// (even untrained) behaves identically to the cost-aware greedy policy.
func TestMarginGateDegradesToCostGreedy(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 2*time.Second)
	f3 := fn(3, "alpine", "node", "express", 400*time.Millisecond)
	var pattern []*workload.Function
	for i := 0; i < 8; i++ {
		pattern = append(pattern, f1, f2, f3)
	}
	w := seq(pattern, 4*time.Second)

	cfg := smallCfg(3)
	cfg.DeviationMargin = 1e9
	s := New(cfg) // untrained: random Q-network
	mRes := platform.New(platform.Config{PoolCapacityMB: 600, Evictor: s.Evictor()}, s).Run(w)

	g := policy.NewCostGreedy()
	gRes := platform.New(platform.Config{PoolCapacityMB: 600, Evictor: g.Evictor()}, g).Run(w)

	if mRes.Metrics.TotalStartup() != gRes.Metrics.TotalStartup() {
		t.Fatalf("gated MLCR (%v) != Cost-Greedy (%v)",
			mRes.Metrics.TotalStartup(), gRes.Metrics.TotalStartup())
	}
	if mRes.Metrics.ColdStarts() != gRes.Metrics.ColdStarts() {
		t.Fatalf("gated MLCR colds %d != Cost-Greedy colds %d",
			mRes.Metrics.ColdStarts(), gRes.Metrics.ColdStarts())
	}
}

// gateOracle decides as its scheduler does and checks each decision
// against the margin gate applied to a forward pass of its own.
type gateOracle struct {
	*Scheduler
	t          *testing.T
	deviations int // decisions whose unmasked argmax was not slot 0
}

func (g *gateOracle) Schedule(env platform.Env, inv *workload.Invocation) int {
	state := g.feat.Build(env, inv)
	got, want := g.decide(state), g.cfg.Slots
	if state.Mask[0] {
		q := g.agent.QValues(state.X)
		best, bestV := drl.MaskedArgmax(q, state.Mask)
		want = best
		if best != 0 {
			g.deviations++
			if bestV < q.Data[0]+g.cfg.DeviationMargin {
				want = 0
			}
		}
	}
	if got != want {
		g.t.Fatalf("invocation %d: decide = %d, the gated forward picks %d", inv.Seq, got, want)
	}
	return g.containerOf(state, got)
}

// TestInfiniteMarginSkipsForward: with a +Inf margin decide runs no
// forward pass, and on a replayed trace every decision equals what the
// margin gate makes of the network's Q-values, including the decisions
// where the network prefers another action.
func TestInfiniteMarginSkipsForward(t *testing.T) {
	cfg := smallCfg(8)
	cfg.DeviationMargin = math.Inf(1)
	s := New(cfg) // untrained: its argmax deviates from slot 0 often
	g := &gateOracle{Scheduler: s, t: t}
	w := fstartbench.BuildOverall(3, fstartbench.OverallOptions{Count: 200})
	prof := countingProfiler()
	res := platform.New(platform.Config{PoolCapacityMB: 512, Evictor: s.Evictor(),
		Obs: &obs.Observer{Perf: prof}}, g).Run(w)
	if res.Metrics.WarmStarts() == 0 || g.deviations == 0 {
		t.Fatalf("%d warm starts, %d decisions the gate overrode; the test is vacuous",
			res.Metrics.WarmStarts(), g.deviations)
	}
	if n := forwards(prof); n != 0 {
		t.Fatalf("a +Inf margin ran %d forward passes, want 0", n)
	}
}

// TestShapedRewardMath checks the potential-based shaping formula and
// the raw-reward default.
func TestShapedRewardMath(t *testing.T) {
	cfg := smallCfg(1)
	cfg.RewardScale = 2
	tr := &trainer{s: New(cfg), pend: pending{
		greedyEst: 3 * time.Second,
		startup:   4 * time.Second,
	}}
	// Default: raw reward -startup/scale.
	if got, want := tr.shapedReward(5*time.Second), -4.0/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("raw reward = %v, want %v", got, want)
	}
	// Full shaping: r + γΦ(s') − Φ(s), Φ = −greedyEst.
	tr.s.cfg.ShapingWeight = 1
	gamma := tr.s.cfg.Gamma
	want := (-4.0 + gamma*(-5.0) - (-3.0)) / 2
	if got := tr.shapedReward(5 * time.Second); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shaped reward = %v, want %v", got, want)
	}
	// Terminal: Φ(s') = 0.
	want = (-4.0 - (-3.0)) / 2
	if got := tr.shapedReward(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("terminal shaped reward = %v, want %v", got, want)
	}
}

// TestPoolCurriculum verifies per-episode pool sizing.
func TestPoolCurriculum(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	w := seq([]*workload.Function{f1, f1, f1}, 5*time.Second)
	var pools []float64
	s := New(smallCfg(4))
	s.Train(TrainOptions{
		Episodes: 4,
		PoolForEpisode: func(ep int) float64 {
			p := float64(100 * (ep + 1))
			pools = append(pools, p)
			return p
		},
		Workload: func(int) workload.Workload { return w },
	})
	if len(pools) != 4 || pools[0] != 100 || pools[3] != 400 {
		t.Fatalf("pool curriculum = %v", pools)
	}
}

// TestOnlineFineTuning: a trained scheduler can be fine-tuned on a new
// stream, as Section VI-C describes: a second Train starts a fresh
// learner over the trained weights and applies further updates.
func TestOnlineFineTuning(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", time.Second)
	var pattern []*workload.Function
	for i := 0; i < 15; i++ {
		pattern = append(pattern, f1, f2)
	}
	w := seq(pattern, 4*time.Second)

	s := New(smallCfg(5))
	s.Train(TrainOptions{Episodes: 3, PoolCapacityMB: 400,
		Workload: func(int) workload.Workload { return w }})
	before := s.Agent().Updates()

	// Two episodes: the fresh replay must refill past WarmupObservations.
	s.Train(TrainOptions{Episodes: 2, PoolCapacityMB: 400,
		Workload: func(int) workload.Workload { return w }})
	if s.Agent().Updates() <= before {
		t.Fatal("online fine-tuning applied no updates")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Slots != 4 || c.Dim != 24 || c.Heads != 2 || c.Hidden != 48 || c.TrainEvery != 2 ||
		c.Gamma != 0.9 || c.DeviationMargin != 0.1 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Slots: 3, DeviationMargin: -1}.WithDefaults()
	if c2.Slots != 3 || c2.DeviationMargin != -1 {
		t.Fatalf("explicit values overwritten: %+v", c2)
	}
}
