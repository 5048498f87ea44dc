package main

// Deterministic input generators: everything a workload feeds the
// program is a pure function of (-seed, -scale). The program under test
// only ever sees these generated inputs, never the seed itself.
//
// A seed draws a new sample, not a new population: the parameters that
// decide what a workload stresses (which functions are popular, each
// function's arrival rate or invocation count) come from fixtureSeed
// and are the same on every run; arrival times, per-request draws and
// execution jitter come from -seed. Otherwise two seeds would measure
// two different workloads (mean startup differed 4x between seeds when
// the per-function rates were redrawn) and no bound could hold.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/fstartbench"
	"mlcr/internal/workload"
)

const fixtureSeed = 1

// cloneCatalog repeats the 13 FStartBench functions clones times; clone
// k of function id gets ID k*13+id and the same image, so functions of
// different IDs match at L1/L2/L3 — the cross-function reuse the paper
// is about.
func cloneCatalog(clones int) []*workload.Function {
	per := len(fstartbench.Functions())
	fns := make([]*workload.Function, 0, clones*per)
	for k := 0; k < clones; k++ {
		for _, f := range fstartbench.Functions() {
			f.ID = k*per + f.ID
			fns = append(fns, f)
		}
	}
	return fns
}

// request is one POST /invoke of an HTTP workload.
type request struct {
	fn   int
	atMS int64
}

// warmRequests is the http_warm sequence: the 13 functions round-robin
// in a seeded order, virtual time stepped so that a function's previous
// invocation has always completed (largest L3 re-hit + exec, + 1 ms)
// before its next arrival. After the first round every request is an
// exact same-function L3 re-hit: the gateway's lock-free fast layer.
func warmRequests(seed int64, n int) ([]*workload.Function, []request) {
	fns := fstartbench.Functions()
	var gap time.Duration
	for _, f := range fns {
		if d := container.Estimate(f, core.MatchL3, false).Total() + f.Exec; d > gap {
			gap = d
		}
	}
	stepMS := int64((gap+time.Millisecond)/time.Millisecond)/int64(len(fns)) + 1
	order := rand.New(rand.NewSource(seed)).Perm(len(fns))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{fn: fns[order[i%len(fns)]].ID, atMS: 1 + int64(i)*stepMS}
	}
	return fns, reqs
}

// churnClones is the clone factor of the http_churn catalog (13 × 8 =
// 104 functions).
const churnClones = 8

// churnRequests is the http_churn sequence: Poisson virtual arrivals at
// 20/s, Zipf(1.1) popularity over a fixed permutation of the 104-clone
// catalog. Arrival stamps are strictly increasing so at_ms identifies a
// request in the trace.
func churnRequests(seed int64, n int) ([]*workload.Function, []request) {
	fns := cloneCatalog(churnClones)
	perm := rand.New(rand.NewSource(fixtureSeed)).Perm(len(fns))
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(fns)-1))
	reqs := make([]request, n)
	var t float64 // ms
	var last int64
	for i := range reqs {
		t += rng.ExpFloat64() * 1000 / 20
		at := int64(t)
		if at <= last {
			at = last + 1
		}
		last = at
		reqs[i] = request{fn: fns[perm[zipf.Uint64()]].ID, atMS: at}
	}
	return fns, reqs
}

// buildRequestBytes renders the sequence as raw keep-alive HTTP/1.1
// requests in one buffer; request i is buf[off[i]:off[i+1]]. With
// reqHeader each request carries its index in X-Bench-Req so the traced
// handler can tie its span to the client's.
func buildRequestBytes(reqs []request, reqHeader bool) (buf []byte, off []uint32) {
	off = make([]uint32, len(reqs)+1)
	buf = make([]byte, 0, len(reqs)*128)
	var body []byte
	for i, r := range reqs {
		off[i] = uint32(len(buf))
		body = append(body[:0], `{"fn_id":`...)
		body = strconv.AppendInt(body, int64(r.fn), 10)
		body = append(body, `,"at_ms":`...)
		body = strconv.AppendInt(body, r.atMS, 10)
		body = append(body, '}')
		buf = append(buf, "POST /invoke HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"...)
		if reqHeader {
			buf = append(buf, "X-Bench-Req: "...)
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, "\r\n"...)
		}
		buf = append(buf, "Content-Length: "...)
		buf = strconv.AppendInt(buf, int64(len(body)), 10)
		buf = append(buf, "\r\n\r\n"...)
		buf = append(buf, body...)
	}
	off[len(reqs)] = uint32(len(buf))
	return buf, off
}

// azureTrace builds an Azure-mix trace of exactly n invocations over a
// clone catalog (the recipe of the repository's BenchmarkSimCore and of
// workload.AzureMix.Build): the catalog is cloned until the power-law
// per-function counts cover n, each function's invocations are spread
// uniformly over a day, and the merged sequence is cut to the first n.
func azureTrace(seed int64, n int) workload.Workload {
	const window = 24 * time.Hour
	per := len(fstartbench.Functions())
	clones := n/(per*7) + 1
	for ; ; clones *= 2 {
		fns := cloneCatalog(clones)
		counts := workload.AzureMix{Rng: rand.New(rand.NewSource(fixtureSeed))}.Counts(len(fns))
		if workload.StatsOf(counts).Total < n {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		streams := make([]workload.Stream, len(fns))
		for i, f := range fns {
			times := make([]time.Duration, counts[i])
			for j := range times {
				times[j] = time.Duration(rng.Float64() * float64(window))
			}
			sort.Slice(times, func(x, y int) bool { return times[x] < times[y] })
			streams[i] = workload.Stream{Fn: f, Times: times}
		}
		w := workload.Merge("azure", streams, 0.1, rng)
		w.Invocations = w.Invocations[:n]
		return w
	}
}

// overallRates are the per-function Poisson rates of the paper's overall
// mix as fstartbench.BuildOverall(fixtureSeed) draws them.
func overallRates(fns int) []float64 {
	const maxRate = 0.4
	rng := rand.New(rand.NewSource(fixtureSeed))
	rates := make([]float64, fns)
	for i := range rates {
		if rates[i] = rng.Float64() * maxRate; rates[i] < maxRate/50 {
			rates[i] = maxRate / 50
		}
	}
	return rates
}

// overallTrace is the paper's overall-evaluation mix (all 13 functions,
// each a Poisson process at its own rate, n invocations split evenly)
// with arrivals and execution jitter drawn from seed.
func overallTrace(seed int64, n int) workload.Workload {
	fns := fstartbench.Functions()
	rates := overallRates(len(fns))
	counts := workload.RoundRobinSplit(n, len(fns))
	streams := make([]workload.Stream, len(fns))
	for i, f := range fns {
		p := workload.Poisson{Rate: rates[i], Rng: rand.New(rand.NewSource(seed*31 + int64(i)))}
		streams[i] = workload.Stream{Fn: f, Times: p.Times(counts[i])}
	}
	return workload.Merge(fstartbench.Overall, streams, 0.1, rand.New(rand.NewSource(seed)))
}

// traceDigest is the sha256 of a trace's (function, arrival, exec)
// triples: same seed, same digest.
func traceDigest(w workload.Workload) string {
	h := sha256.New()
	var b [24]byte
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(inv.Fn.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(inv.Arrival))
		binary.LittleEndian.PutUint64(b[16:], uint64(inv.Exec))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
