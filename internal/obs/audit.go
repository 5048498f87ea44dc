package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Candidate is one idle container considered for an invocation: the
// container the decision audit shows the policy saw, with its match
// level, estimated warm-start cost and (when pruned by the action mask)
// the reason it was never offered.
type Candidate struct {
	Container int `json:"container"`
	// Level is the match level (0 = no match, 1..3 = L1..L3).
	Level int `json:"level"`
	// EstUS is the estimated startup of reusing this container, in
	// microseconds.
	EstUS int64 `json:"est_us"`
	// Pruned is "" for a viable candidate, otherwise PruneNoMatch or
	// PruneWorseThanCold.
	Pruned string `json:"pruned,omitempty"`
}

// Decision is the full audit record of one scheduling decision — the
// exact data needed to debug the DQN action mask and to compare
// policies decision-by-decision.
type Decision struct {
	Seq int `json:"seq"`
	Fn  int `json:"fn"`
	// AtUS is the invocation's virtual arrival time in microseconds.
	AtUS int64 `json:"at_us"`
	// Candidates is every idle pool container at decision time, viable
	// and pruned, in deterministic pool order.
	Candidates []Candidate `json:"candidates"`
	// Chosen is the scheduler's raw choice: a container ID, or -1 for a
	// cold start. A choice the platform could not honour (a policy
	// error) shows as Chosen != -1 with Cold true.
	Chosen int  `json:"chosen"`
	Cold   bool `json:"cold"`
	// Level is the realized match level (0 when cold).
	Level int `json:"level"`
	// StartupUS is the realized startup latency in microseconds.
	StartupUS int64 `json:"startup_us"`
	// Reward is the paper's unscaled reward signal, -startup in seconds.
	Reward float64 `json:"reward"`
}

// Audit is the scheduler decision audit log: an append-only sequence of
// Decisions in arrival order. Safe for concurrent record/export.
type Audit struct {
	mu        sync.Mutex
	decisions []Decision
}

// Record appends one decision.
func (a *Audit) Record(d Decision) {
	a.mu.Lock()
	a.decisions = append(a.decisions, d)
	a.mu.Unlock()
}

// Len returns the number of recorded decisions.
func (a *Audit) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.decisions)
}

// Decisions returns a copy of the recorded decisions in arrival order.
func (a *Audit) Decisions() []Decision {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// WriteJSONL writes one JSON object per decision in arrival order. The
// encoding is deterministic, so two identical seeded runs produce
// byte-identical logs.
func (a *Audit) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range a.Decisions() {
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("obs: audit: %w", err)
		}
	}
	return bw.Flush()
}
