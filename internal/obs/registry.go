package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/obs/perf"
)

// Counter is a monotonically increasing integer metric. Updates are
// atomic and allocation-free, so counters can sit on scheduling hot
// paths and be scraped concurrently by the gateway.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// summaryQuantiles are the quantile labels every Summary exports.
var summaryQuantiles = [...]float64{0.5, 0.9, 0.99, 0.999}

// Summary is a quantile summary backed by a perf.HDR: fixed ~15 KiB
// footprint regardless of sample count, ≤3.1% quantile error, exported
// in the Prometheus summary format. It is fed either by Observe (the
// platform's per-decision startup latency) or wholesale via SetHDR
// (per-run profiler exports).
// A small mutex makes observe/scrape safe concurrently.
type Summary struct {
	mu sync.Mutex
	h  perf.HDR
}

// Observe records one duration sample.
func (s *Summary) Observe(d time.Duration) {
	s.mu.Lock()
	s.h.RecordDuration(d)
	s.mu.Unlock()
}

// SetHDR replaces the summary's aggregate state with a copy of h,
// so per-run profiler histograms can be published without the summary
// aliasing live recording state.
func (s *Summary) SetHDR(h *perf.HDR) {
	if h == nil {
		return
	}
	s.mu.Lock()
	s.h = *h
	s.mu.Unlock()
}

// snapshot copies the HDR under the lock.
func (s *Summary) snapshot() perf.HDR {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}

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

// Registry holds named metrics. Registration is idempotent: asking for
// an existing name returns the same handle, so callers can register
// eagerly and increment via the returned pointer with zero lookups on
// the hot path.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	summaries map[string]*Summary
	help      map[string]string // base name -> help text
	typ       map[string]string // base name -> prometheus type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		summaries: map[string]*Summary{},
		help:      map[string]string{},
		typ:       map[string]string{},
	}
}

func (r *Registry) register(name, help, typ string) string {
	base, _ := splitName(name)
	if prev, ok := r.typ[base]; ok && prev != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", base, prev, typ))
	}
	r.typ[base] = typ
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
	}
	return base
}

// Counter returns the counter with the given name (which may carry a
// {label="value"} suffix), creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Summary returns the quantile summary with the given name, creating
// it on first use.
func (r *Registry) Summary(name, help string) *Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, "summary")
	s, ok := r.summaries[name]
	if !ok {
		s = &Summary{}
		r.summaries[name] = s
	}
	return s
}

// Snapshot renders the registry in Prometheus exposition format and
// returns it as a string. The output is deterministic: families sorted
// by base name, series sorted by full name.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

// WritePrometheus writes all metrics in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type series struct {
		name string
		kind string // counter | gauge | summary
	}
	families := map[string][]series{}
	for name := range r.counters {
		base, _ := splitName(name)
		families[base] = append(families[base], series{name, "counter"})
	}
	for name := range r.gauges {
		base, _ := splitName(name)
		families[base] = append(families[base], series{name, "gauge"})
	}
	for name := range r.summaries {
		base, _ := splitName(name)
		families[base] = append(families[base], series{name, "summary"})
	}
	bases := make([]string, 0, len(families))
	for base := range families {
		bases = append(bases, base)
	}
	sort.Strings(bases)

	bw := bufio.NewWriter(w)
	for _, base := range bases {
		ss := families[base]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		if help := r.help[base]; help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", base, help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", base, r.typ[base])
		for _, s := range ss {
			switch s.kind {
			case "counter":
				fmt.Fprintf(bw, "%s %d\n", s.name, r.counters[s.name].Value())
			case "gauge":
				fmt.Fprintf(bw, "%s %s\n", s.name, formatFloat(r.gauges[s.name].Value()))
			case "summary":
				writeSummary(bw, s.name, r.summaries[s.name])
			}
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}

// writeSummary expands one summary into quantile series plus _sum and
// _count, with values in seconds (HDR records nanoseconds). _sum goes
// through time.Duration.Seconds, so it prints exactly what the run's
// summed latency does (metrics.Collector.TotalStartup).
func writeSummary(w io.Writer, name string, s *Summary) {
	base, labels := splitName(name)
	h := s.snapshot()
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
