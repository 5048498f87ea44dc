package main

// The driver shared by all workloads: timed, repeated set-up; warm-up;
// laps for the measured time; output checks; end-to-end or per-layer
// values.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64       // measured phase length; laps are whole, so the phase ends within half a lap of it
	trace    bool          // per-layer run: laps alternate untraced / traced
	scale    float64       // multiplies every lap size
	setups   int           // set-up repetitions, 0 = as many as minSetups and minSetupTime ask; setup_s is their median
	episodes int           // DQN training episodes in set-up
	warmup   time.Duration // untimed HTTP warm-up
	traceOut string        // JSONL span file ("" = keep spans in memory only)
}

func defaultConfig() config {
	return config{seed: defaultSeed, seconds: 20, scale: 1, episodes: 4, warmup: 2 * time.Second}
}

// Set-up is repeated at least minSetups times and until minSetupTime
// has been spent on it (at most maxSetups times), so that the median of
// a set-up of a few milliseconds rests on enough repetitions to be
// steady while one of seconds is not repeated more than needed.
const (
	minSetups    = 3
	maxSetups    = 50
	minSetupTime = time.Second
)

func (cfg *config) moreSetups(done int, spent time.Duration) bool {
	if cfg.setups > 0 {
		return done < cfg.setups
	}
	return done < minSetups || (spent < minSetupTime && done < maxSetups)
}

func scaled(n int, scale float64) int {
	if m := int(math.Round(float64(n) * scale)); m > 1 {
		return m
	}
	return 1
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// run is everything one workload run produced.
type run struct {
	res    result
	values map[string]float64
	notes  []string // output-check failures
	report []string // human-readable lines printed before the result line
}

func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload performs one complete run. A returned error means the run
// could not be measured at all; failed output checks are reported in the
// result (correct=false) instead.
func runWorkload(cfg *config) (*run, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := &run{res: result{Correct: true}}

	var setupS []float64
	var spent time.Duration
	for cfg.moreSetups(len(setupS), spent) {
		runtime.GC() // the previous build is garbage; keep it out of this one's peak
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	if err := w.warmup(); err != nil {
		return nil, err
	}

	modes := []bool{false}
	if cfg.trace {
		modes = []bool{false, true}
	}
	var laps [2][]lapStats
	budget := time.Duration(cfg.seconds * float64(time.Second))
	phase := time.Now()
	for {
		round := time.Now()
		for k, traced := range modes {
			l, err := w.lap(traced)
			laps[k] = append(laps[k], l)
			if err != nil {
				r.fail("lap %d (traced=%v): %v", len(laps[k]), traced, err)
			}
		}
		if !r.res.Correct || time.Since(phase)+time.Since(round)/2 >= budget {
			break
		}
	}
	rssMB := peakRSSMB()

	outcome := ""
	for k := range modes {
		for i, l := range laps[k] {
			r.res.Attempted += l.ops
			r.res.Failed += l.failed
			if l.outcome == "" {
				continue
			}
			if outcome == "" {
				outcome = l.outcome
			} else if l.outcome != outcome {
				r.fail("lap %d (traced=%v) simulated a different outcome: fingerprint %.12s, first lap %.12s", i+1, k == 1, l.outcome, outcome)
			}
		}
	}
	if r.res.Failed > 0 {
		r.fail("%d of %d operations failed", r.res.Failed, r.res.Attempted)
	}

	r.report = append(r.report,
		fmt.Sprintf("workload %s seed %d scale %g trace %v", cfg.workload, cfg.seed, cfg.scale, cfg.trace),
		fmt.Sprintf("input sha256 %s", w.inputDigest()),
		fmt.Sprintf("set-up x%d: %.4f s", len(setupS), setupS))
	if outcome != "" {
		r.report = append(r.report, fmt.Sprintf("outcome fingerprint sha256 %s (identical on every lap)", outcome))
	}
	for k := range modes {
		r.report = append(r.report, phaseLine(modes[k], laps[k]))
	}

	if cfg.trace {
		r.values, err = w.layerValues()
		if err != nil {
			r.fail("per-layer: %v", err)
		}
		for name, v := range w.setupValues() {
			r.values[name] = v
		}
		plain, traced := medianWall(laps[0]), medianWall(laps[1])
		r.values["trace.overhead_share"] = ratio(traced-plain, plain)
		r.values["proc.cpu_us_per_op"] = cpuPerOpUS(laps[1])
		err = r.res.fill(perLayer, r.values)
	} else {
		r.values = endToEndValues(laps[0], median(setupS), rssMB)
		err = r.res.fill(endToEnd, r.values)
	}
	if err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		spans := w.spans()
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
		r.report = append(r.report, fmt.Sprintf("wrote %d spans to %s", len(spans), cfg.traceOut))
	}
	return r, nil
}

func phaseLine(traced bool, laps []lapStats) string {
	var ops, failed, over int
	var wall time.Duration
	for _, l := range laps {
		ops += l.ops
		failed += l.failed
		over += l.overLimit
		wall += l.wall
	}
	name := "untraced"
	if traced {
		name = "traced"
	}
	rates := make([]float64, len(laps))
	p99s := make([]float64, len(laps))
	for i, l := range laps {
		rates[i] = math.Round(ratio(float64(l.ops), l.wall.Seconds()))
		p99s[i] = math.Round(l.p99US)
	}
	return fmt.Sprintf("%s phase: %d laps of %d operations, %.3f s, attempted %d, succeeded %d, failed %d, over the latency limit %d\n  ops/s per lap: %v\n  p99 us per lap: %v",
		name, len(laps), ratioInt(ops, len(laps)), wall.Seconds(), ops, ops-failed, failed, over, rates, p99s)
}

func ratioInt(a, b int) int {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuPerOpUS is the process's CPU time during the laps per operation.
func cpuPerOpUS(laps []lapStats) float64 {
	var cpu time.Duration
	ops := 0
	for _, l := range laps {
		cpu += l.cpu
		ops += l.ops
	}
	return ratio(float64(cpu.Nanoseconds())/1e3, float64(ops))
}

func medianWall(laps []lapStats) float64 {
	v := make([]float64, len(laps))
	for i, l := range laps {
		v[i] = l.wall.Seconds()
	}
	return median(v)
}

// endToEndValues derives the end-to-end metrics from the untraced laps:
// every host-time metric is the median over laps of the lap's value.
func endToEndValues(laps []lapStats, setupS, rssMB float64) map[string]float64 {
	var answered, colds int
	var startupMS float64
	rates := make([]float64, len(laps))
	means := make([]float64, len(laps))
	p99s := make([]float64, len(laps))
	for i, l := range laps {
		answered += l.ops - l.failed
		colds += l.colds
		startupMS += l.startupMS
		rates[i] = ratio(float64(l.ops-l.failed-l.overLimit), l.wall.Seconds())
		means[i], p99s[i] = l.meanUS, l.p99US
	}
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       median(rates),
		"latency_mean_us": median(means),
		"latency_p99_us":  median(p99s),
		"peak_rss_mb":     rssMB,
		"startup_ms_mean": ratio(startupMS, float64(answered)),
		"warm_share":      ratio(float64(answered-colds), float64(answered)),
	}
}

// print writes the report, the metric table and, last, the result line.
func (r *run) print(out io.Writer, trace bool) {
	for _, line := range r.report {
		fmt.Fprintln(out, line)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprint(out, r.res.table(defs))
	for _, n := range r.notes {
		fmt.Fprintln(out, "CHECK FAILED:", n)
	}
	fmt.Fprintln(out, r.res.line())
}
