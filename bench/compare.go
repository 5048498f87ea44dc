package main

// -validate and -compare: the benchmark checking its own manifest and
// applying its own bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateTables checks the benchmark's own tables: names and units
// within the manifest's limits, used once, and every per-layer metric
// naming an end-to-end metric and workloads that exist.
func validateTables() error {
	if n := len(workloadDefs); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	workloads := map[string]bool{}
	for _, w := range workloadDefs {
		if err := use(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		workloads[w.Name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			return fmt.Errorf("metric %s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			return fmt.Errorf("metric %s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		target, on, ok := strings.Cut(m.Moves, "@")
		if !ok || findMetric(endToEnd, target) == nil {
			return fmt.Errorf("per-layer metric %s does not name the end-to-end metric it should move (%q)", m.Name, m.Moves)
		}
		for _, w := range strings.Split(on, ",") {
			if !workloads[w] {
				return fmt.Errorf("per-layer metric %s names unknown workload %q", m.Name, w)
			}
		}
	}
	return nil
}

// validateFile checks that a BENCHMARK.json says what the tables say.
func validateFile(path string) error {
	if err := validateTables(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloadDefs) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		return fmt.Errorf("%s lists %d workloads, %d end-to-end and %d per-layer metrics; the benchmark has %d, %d and %d",
			path, len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloadDefs), len(endToEnd), len(perLayer))
	}
	for i, w := range m.Workloads {
		if w != workloadDefs[i] {
			return fmt.Errorf("%s: workload %d is %+v, the benchmark has %+v", path, i, w, workloadDefs[i])
		}
	}
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			return fmt.Errorf("%s: end-to-end metric %d is %+v, the benchmark has %+v", path, i, e, d)
		}
	}
	for i, p := range m.PerLayer {
		d := perLayer[i]
		if p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			return fmt.Errorf("%s: per-layer metric %d is %+v, the benchmark has %s %s %s", path, i, p, d.Name, d.Unit, d.Better)
		}
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		r := k*m - j*4 // outside 0..4 at the clamped ends: extrapolates, as Python does
		return (s[j-1]*float64(4-r) + s[j]*float64(r)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// exactOnReplay: the simulator is deterministic, so on the replay
// workloads these metrics compare exactly when both sets use the same
// seeds — any worsening is a regression.
var exactOnReplay = map[string]bool{"startup_ms_mean": true, "warm_share": true}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values gathers one end-to-end metric of a workload over the set's
// untraced runs.
func (s *resultSet) values(workload, metric string) (values []float64) {
	for _, r := range s.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			values = append(values, v.Value)
		}
	}
	return values
}

// failedShare is failed / attempted operations of a workload over the
// set's untraced runs.
func (s *resultSet) failedShare(workload string) float64 {
	var attempted, failed int
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles applies the benchmark's bounds to result sets a (the
// parent) and b (the change). It reports every pairing of end-to-end
// metric and workload in its own row and returns false on a regression
// or a larger failed share. A pairing whose run-to-run spread exceeds
// its bound is unresolved, not unchanged.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Scale != b.Scale || a.Seconds != b.Seconds {
		return false, fmt.Errorf("sets differ in settings: scale %g/%g, seconds %g/%g", a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	ok := true
	fmt.Fprintf(out, "%-12s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, w := range workloadDefs {
		if len(a.values(w.Name, endToEnd[0].Name)) == 0 || len(b.values(w.Name, endToEnd[0].Name)) == 0 {
			continue // a set made with -only
		}
		if failedA, failedB := a.failedShare(w.Name), b.failedShare(w.Name); failedB > failedA {
			ok = false
			fmt.Fprintf(out, "%-12s failed share rose from %.6f to %.6f: REGRESSION\n", w.Name, failedA, failedB)
		}
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			bound := m.Bound
			if exactOnReplay[m.Name] && strings.HasPrefix(w.Name, "sim_") && a.Seed == b.Seed {
				bound = 0
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case worse > bound:
				verdict, ok = "REGRESSION", false
			case sp > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-12s %-16s %14.6g %14.6g %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*sp, 100*bound, verdict)
		}
	}
	return ok, nil
}
