package experiments

import (
	"time"

	"mlcr/internal/report"
)

// Fig9Point is one checkpoint of the cumulative curves of Figure 9.
type Fig9Point struct {
	Invocations int
	GreedyLat   time.Duration
	MLCRLat     time.Duration
	GreedyCold  int
	MLCRCold    int
}

// Fig9Result compares Greedy-Match and MLCR along the arrival sequence
// under the Loose pool size.
type Fig9Result struct {
	Points      []Fig9Point
	GreedyTotal time.Duration
	MLCRTotal   time.Duration
}

// Fig9 runs the overall workload at Loose and samples the cumulative
// total startup latency and cold-start count every step invocations.
func (s *Study) Fig9(step int) Fig9Result {
	if step <= 0 {
		step = 50
	}
	w, loose, trained := s.overall(s.opts)
	TuneMargin(trained, w, loose, s.opts.Parallelism)
	setups := []Setup{SetupOf("Greedy-Match", 0), MLCRSetup(trained)}
	results := RunAll(setups, w, loose, s.opts)
	gRes, mRes := results[0], results[1]

	gLat, gCold := gRes.Metrics.Cumulative()
	mLat, mCold := mRes.Metrics.Cumulative()

	out := Fig9Result{
		GreedyTotal: gRes.Metrics.TotalStartup(),
		MLCRTotal:   mRes.Metrics.TotalStartup(),
	}
	n := len(gLat)
	for i := step - 1; i < n; i += step {
		out.Points = append(out.Points, Fig9Point{
			Invocations: i + 1,
			GreedyLat:   gLat[i], MLCRLat: mLat[i],
			GreedyCold: gCold[i], MLCRCold: mCold[i],
		})
	}
	if n > 0 && (n%step) != 0 {
		out.Points = append(out.Points, Fig9Point{
			Invocations: n,
			GreedyLat:   gLat[n-1], MLCRLat: mLat[n-1],
			GreedyCold: gCold[n-1], MLCRCold: mCold[n-1],
		})
	}
	return out
}

// Table renders the cumulative comparison.
func (r Fig9Result) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig 9 — cumulative startup latency and cold starts under Loose pool",
		Header: []string{"invocations", "greedy latency", "mlcr latency", "greedy colds", "mlcr colds"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Invocations, p.GreedyLat, p.MLCRLat, p.GreedyCold, p.MLCRCold)
	}
	t.Caption = "totals: greedy " + report.FmtDur(r.GreedyTotal) + ", MLCR " + report.FmtDur(r.MLCRTotal)
	return t
}
