package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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

// Decisions reduces a trace to its decision audit: one Decision per
// KindScheduleDecided, in trace order. A decision's candidates are the
// KindMatchAttempted events with its Seq since the previous decision;
// every other kind between them is ignored. A decision that saw an
// empty pool has nil Candidates.
func Decisions(events []Event) []Decision {
	var out []Decision
	var cands []Candidate
	seq := -1
	for _, ev := range events {
		switch ev.Kind {
		case KindMatchAttempted:
			if ev.Seq != seq {
				cands, seq = nil, ev.Seq
			}
			cands = append(cands, Candidate{
				Container: ev.Container, Level: ev.Level, EstUS: ev.Dur.Microseconds(), Pruned: ev.Detail,
			})
		case KindScheduleDecided:
			if ev.Seq != seq {
				cands = nil
			}
			out = append(out, Decision{
				Seq: ev.Seq, Fn: ev.Fn, AtUS: ev.At.Microseconds(),
				Candidates: cands, Chosen: ev.Action, Cold: ev.Cold, Level: ev.Level,
				StartupUS: ev.Dur.Microseconds(), Reward: -ev.Dur.Seconds(),
			})
			cands, seq = nil, -1
		}
	}
	return out
}

// WriteAuditJSONL writes the recording's decision audit (Decisions),
// one JSON object per decision in arrival order. The encoding is
// deterministic, so two identical seeded runs produce byte-identical
// logs. The reduction reads the recording in place (Recorder.view),
// not a copy of it.
func (r *Recorder) WriteAuditJSONL(w io.Writer) error {
	ds := Decisions(r.view())
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("obs: audit: %w", err)
		}
	}
	return bw.Flush()
}
