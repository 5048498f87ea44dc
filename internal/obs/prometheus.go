package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlcr/internal/obs/perf"
)

// MetricType is a Prometheus metric type: the family's # TYPE line and
// how a series of it prints.
type MetricType uint8

const (
	// TypeCounter prints Value as a whole number.
	TypeCounter MetricType = iota + 1
	// TypeGauge prints Value as a float.
	TypeGauge
	// TypeSummary expands HDR into quantile series, _sum and _count.
	TypeSummary
)

// String returns the type's name in # TYPE lines.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeSummary:
		return "summary"
	default:
		return "untyped"
	}
}

// Metric is one series of a Prometheus export. Producers derive it at
// export time from results they already keep (platform.RunResult,
// cluster.Result, the gateway's Stats, a perf.Profiler): nothing
// updates a Metric while a run goes on.
type Metric struct {
	// Name is the base name, optionally followed by a
	// {label="value",...} set.
	Name string
	// Help is the family's HELP text; every series of a family carries
	// the same one.
	Help string
	Type MetricType
	// Value is a counter's count or a gauge's reading. A summary series
	// without an HDR is one line the producer already reduced (the
	// gateway's millisecond quantiles).
	Value float64
	// HDR is a summary's distribution in nanoseconds, exported in
	// seconds.
	HDR *perf.HDR
}

// summaryQuantiles are the quantile labels every HDR summary exports.
var summaryQuantiles = [...]float64{0.5, 0.9, 0.99, 0.999}

// metricName validates Prometheus metric names; labels, when present,
// follow as a {name="value",...} suffix.
var (
	baseNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelsRe   = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}$`)
)

// splitName separates "name{label="v"}" into base name and label
// suffix, panicking on malformed names (a programmer error).
func splitName(name string) (base, labels string) {
	base = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
		if !labelsRe.MatchString(labels) {
			panic(fmt.Sprintf("obs: invalid metric labels %q", labels))
		}
	}
	if !baseNameRe.MatchString(base) {
		panic(fmt.Sprintf("obs: invalid metric name %q", base))
	}
	return base, labels
}

// WritePrometheus writes ms in the Prometheus text exposition format
// (version 0.0.4), the one writer every export goes through. The
// output is deterministic whatever the order of ms: families sorted by
// base name, each under its HELP and TYPE lines, series sorted by full
// name. A malformed name, a name given twice and a family given two
// types are programmer errors and panic.
func WritePrometheus(w io.Writer, ms []Metric) error {
	type series struct {
		base string
		m    *Metric
	}
	ss := make([]series, len(ms))
	for i := range ms {
		base, _ := splitName(ms[i].Name)
		ss[i] = series{base, &ms[i]}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].base != ss[j].base {
			return ss[i].base < ss[j].base
		}
		return ss[i].m.Name < ss[j].m.Name
	})

	bw := bufio.NewWriter(w)
	for i, s := range ss {
		m := s.m
		if i == 0 || s.base != ss[i-1].base {
			if m.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.base, m.Help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.base, m.Type)
		} else if prev := ss[i-1].m; prev.Name == m.Name {
			panic(fmt.Sprintf("obs: metric %q given twice", m.Name))
		} else if prev.Type != m.Type {
			panic(fmt.Sprintf("obs: metric %q given as both %s and %s", s.base, prev.Type, m.Type))
		}
		switch {
		case m.Type == TypeCounter:
			fmt.Fprintf(bw, "%s %d\n", m.Name, int64(m.Value))
		case m.Type == TypeSummary && m.HDR != nil:
			writeSummary(bw, m.Name, m.HDR)
		default:
			fmt.Fprintf(bw, "%s %s\n", m.Name, formatFloat(m.Value))
		}
	}
	return bw.Flush()
}

// writeSummary expands one summary into quantile series plus _sum and
// _count, with values in seconds (HDR records nanoseconds). _sum goes
// through time.Duration.Seconds, so it prints exactly what the run's
// summed latency does (metrics.Collector.TotalStartup).
func writeSummary(w io.Writer, name string, h *perf.HDR) {
	base, labels := splitName(name)
	joined := func(extra string) string {
		if labels == "" {
			return "{" + extra + "}"
		}
		return labels[:len(labels)-1] + "," + extra + "}"
	}
	for _, q := range summaryQuantiles {
		v := float64(h.Quantile(q)) / 1e9
		fmt.Fprintf(w, "%s%s %s\n", base, joined(`quantile="`+formatFloat(q)+`"`), formatFloat(v))
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(time.Duration(h.Sum()).Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
}

// formatFloat renders a float deterministically ('g', shortest).
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PhaseMetrics derives the mlcr_phase_seconds summaries from a phase
// profiler: one per phase that recorded a span, each over a copy of the
// phase's HDR, so the caller may write them after the profiler moves
// on. A nil profiler has none.
func PhaseMetrics(p *perf.Profiler) []Metric {
	var out []Metric
	for ph := perf.Phase(0); p != nil && ph < perf.NumPhases; ph++ {
		if h := p.Phase(ph); h.Count() > 0 {
			out = append(out, Metric{
				Name: `mlcr_phase_seconds{phase="` + ph.String() + `"}`,
				Help: "Hot-path phase latency by profiler phase.",
				Type: TypeSummary, HDR: h.Snapshot(),
			})
		}
	}
	return out
}
