package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/fstartbench"
	"mlcr/internal/report"
)

// Fig1Row is one bar of Figure 1: the startup breakdown of a function
// started against a warm container under reuse mode C (same-configuration
// only: always a cold start here) or W (reuse the warm container, pulling
// missing packages).
type Fig1Row struct {
	Fn      string
	Mode    string // "C" or "W"
	Level   core.MatchLevel
	Startup container.Startup
}

// Fig1Result is the motivating experiment of Figure 1.
type Fig1Result struct {
	WarmFn string
	Rows   []Fig1Row
	// MaxSpeedup is the largest C/W total ratio across functions.
	MaxSpeedup float64
}

// Fig1 reproduces Figure 1: keep one function's container warm, then
// start four other functions against it under the two reuse modes.
// Functions are drawn from FStartBench: the warm container ran F5
// (Debian/Python/Flask); the probes are F10 (identical stack), F6 and F7
// (extend the stack at the runtime level) and F13 (large ML runtime) —
// the same spread of reuse depths as the paper's F2–F5.
func Fig1() Fig1Result {
	fns := fstartbench.Functions()
	warm := fstartbench.ByID(fns, 5)
	probes := fstartbench.Pick(fns, 10, 6, 7, 13)

	res := Fig1Result{WarmFn: warm.Name}
	for _, f := range probes {
		cold := container.Estimate(f, core.NoMatch, false)
		res.Rows = append(res.Rows, Fig1Row{Fn: f.Name, Mode: "C", Level: core.NoMatch, Startup: cold})

		lv := core.Match(&f.Image, &warm.Image)
		var wStart container.Startup
		if lv == core.NoMatch {
			wStart = cold // no reusable level: W degenerates to a cold start
		} else {
			wStart = container.Estimate(f, lv, f.ID != warm.ID)
		}
		res.Rows = append(res.Rows, Fig1Row{Fn: f.Name, Mode: "W", Level: lv, Startup: wStart})

		if sp := float64(cold.Total()) / float64(wStart.Total()); sp > res.MaxSpeedup {
			res.MaxSpeedup = sp
		}
	}
	return res
}

// Table renders the breakdown in the layout of Figure 1.
func (r Fig1Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig 1 — startup breakdown against a warm container of " + r.WarmFn,
		Header:  []string{"function", "mode", "match", "create", "clean", "pull", "install", "rt-init", "fn-init", "total"},
		Caption: fmt.Sprintf("max speedup W vs C: %.1fx (paper: up to 14x)", r.MaxSpeedup),
	}
	for _, row := range r.Rows {
		s := row.Startup
		t.AddRow(row.Fn, row.Mode, row.Level.String(),
			fmtMS(s.Create), fmtMS(s.Clean), fmtMS(s.Pull), fmtMS(s.Install),
			fmtMS(s.RuntimeInit), fmtMS(s.FunctionInit), report.FmtDur(s.Total()))
	}
	return t
}

func fmtMS(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return report.FmtDur(d)
}
