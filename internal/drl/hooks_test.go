package drl

import (
	"testing"

	"mlcr/internal/nn"
)

// TestOnTrainStepHook verifies the training telemetry hook fires once
// per gradient update with a monotone update counter and the same TD
// error TrainStep returns, and that target syncs are flagged.
func TestOnTrainStepHook(t *testing.T) {
	q := QConfig{Tokens: 3, Width: tokenWidth, Actions: 2, Dim: 8, Heads: 2, Hidden: 16}
	cfg := LearnerConfig{Gamma: 0.95, LR: 1e-3, BatchSize: 4, ReplayCapacity: 10000, TargetSync: 2}
	l := NewLearner(NewAgent(q, 1), cfg, 1)
	s := nn.NewTensor(3, tokenWidth)
	l.Observe(Transition{State: s, Action: 0, Reward: 1, Done: true})

	var got []TrainStepStats
	l.OnTrainStep = func(st TrainStepStats) { got = append(got, st) }

	// An empty-replay TrainStep is a no-op and must not fire the hook.
	empty := NewLearner(NewAgent(q, 1), cfg, 1)
	empty.OnTrainStep = func(TrainStepStats) { t.Error("hook fired with empty replay") }
	empty.TrainStep()

	for i := 0; i < 4; i++ {
		td := l.TrainStep()
		if last := got[len(got)-1]; last.TDError != td {
			t.Errorf("update %d: hook TD %v != returned TD %v", i+1, last.TDError, td)
		}
	}
	if len(got) != 4 {
		t.Fatalf("hook fired %d times, want 4", len(got))
	}
	for i, st := range got {
		if st.Update != i+1 {
			t.Errorf("stats[%d].Update = %d, want %d", i, st.Update, i+1)
		}
		if st.ReplayLen != 1 {
			t.Errorf("stats[%d].ReplayLen = %d, want 1", i, st.ReplayLen)
		}
		if wantSync := (i+1)%2 == 0; st.Synced != wantSync {
			t.Errorf("stats[%d].Synced = %v, want %v", i, st.Synced, wantSync)
		}
	}
}
