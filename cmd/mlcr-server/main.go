// Command mlcr-server serves the FStartBench catalog over HTTP behind a
// chosen scheduling policy, through api.Gateway in one of two modes:
//
//   - -mode sim (default): one shard without the lock-free fast layer,
//     observed — every decision is one simulator step on one platform,
//     with /trace and /audit (the decision audit, a reduction of the
//     trace). Reproducible, but one lock.
//   - -mode gateway: the concurrent serving path — sharded warm pool
//     with a lock-free fast layer for exact L3 re-hits and (for the
//     MLCR policy) batched DQN inference via a shared QBatcher.
//
// Usage:
//
//	mlcr-server -addr :8080 -policy Greedy-Match -pool 4096
//	mlcr-server -mode gateway -shards 16 -policy Greedy-Match
//	mlcr-server -mode gateway -policy MLCR -model mlcr.gob
//
// then:
//
//	curl -X POST localhost:8080/invoke -d '{"fn_id": 5}'
//	curl -X POST localhost:8080/invoke -d '{"fn_id": 6}'   # L2 warm reuse
//	curl localhost:8080/stats
//	curl localhost:8080/pool
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener drains
// in-flight requests, then -trace-out/-metrics-out artifacts are
// flushed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, served only under -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mlcr/internal/api"
	"mlcr/internal/drl"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
)

// Listener limits. Requests are small JSON bodies and responses are
// computed in microseconds, so a client that is slow to send headers
// or a body, or that parks an idle keep-alive connection, is cut off
// instead of holding a connection forever. No write timeout:
// /debug/pprof/profile streams for as long as its caller asks.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mode := flag.String("mode", "sim", "serving mode: sim (deterministic single platform) or gateway (concurrent sharded pool)")
	policyName := flag.String("policy", "Greedy-Match",
		"policy: "+strings.Join(policy.Names(), ", ")+", MLCR")
	model := flag.String("model", "", "trained MLCR model path (required for -policy MLCR)")
	poolMB := flag.Float64("pool", 4096, "warm pool capacity in MB (0 = unlimited)")
	shards := flag.Int("shards", 16, "gateway mode: pool shards, each function placed by the by-function router")
	batch := flag.Int("batch", 64, "max coalesced DQN inference batch (MLCR policy)")
	traceOut := flag.String("trace-out", "", "sim mode: write the run's Chrome trace JSON here on shutdown")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus exposition-format metrics snapshot here on shutdown")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	flag.Parse()

	mkSched, err := factories(*policyName, *model, *batch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-server: %v\n", err)
		os.Exit(2)
	}
	handler, flush, err := newServer(*mode, api.GatewayConfig{
		Functions:      fstartbench.Functions(),
		PoolCapacityMB: *poolMB,
		NewScheduler:   mkSched,
		Shards:         *shards,
	}, *traceOut, *metricsOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-server: %v\n", err)
		os.Exit(2)
	}

	if *pprofOn {
		// Profiling shares the listener: net/http/pprof registers
		// /debug/pprof/* on the default mux, and everything else goes to
		// the API server.
		http.DefaultServeMux.Handle("/", handler)
		handler = http.DefaultServeMux
	}

	fmt.Printf("mlcr-server: %s mode, %s policy, %.0f MB pool, listening on %s\n",
		*mode, *policyName, *poolMB, *addr)

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, drains
	// in-flight requests (bounded), then flushes artifacts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "mlcr-server: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("mlcr-server: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-server: shutdown: %v\n", err)
	}
	flush()
}

// newServer builds mode's gateway from cfg and the shutdown flush that
// writes the -trace-out and -metrics-out artifacts. Sim mode is one
// observed shard without the fast layer; the concurrent gateway records
// no trace.
func newServer(mode string, cfg api.GatewayConfig, traceOut, metricsOut string) (http.Handler, func(), error) {
	switch mode {
	case "sim":
		cfg.Shards, cfg.FastDepth, cfg.Observe = 1, -1, true
	case "gateway":
	default:
		return nil, nil, fmt.Errorf("unknown mode %q", mode)
	}
	gw, err := api.NewGateway(cfg)
	if err != nil {
		return nil, nil, err
	}
	flush := func() {
		if cfg.Observe {
			writeArtifact(traceOut, "trace", gw.WriteTrace)
		} else if traceOut != "" {
			fmt.Fprintln(os.Stderr, "mlcr-server: -trace-out ignored in gateway mode (no deterministic recording)")
		}
		writeArtifact(metricsOut, "metrics", gw.WriteMetricsText)
	}
	return gw, flush, nil
}

// writeArtifact writes one shutdown artifact when a path is configured.
func writeArtifact(path, kind string, write func(w io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-server: %s: %v\n", kind, err)
		return
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "mlcr-server: %s: %v\n", kind, werr)
		return
	}
	fmt.Printf("mlcr-server: wrote %s to %s\n", kind, path)
}

// factories resolves the policy name into a per-platform scheduler
// constructor; each platform pairs its scheduler with the scheduler's
// own default evictor. For MLCR the trained model is loaded once, with
// the configuration it was saved with, and every platform — each
// gateway shard, and each generation POST /reset builds while requests
// finish on the old one — gets its own Clone sharing the master's
// weights and one QBatcher, so concurrent shards coalesce their forward
// passes.
func factories(name, model string, batch int) (func() platform.Scheduler, error) {
	if name != "MLCR" {
		if _, err := policy.New(name, 0); err != nil {
			return nil, err
		}
		return func() platform.Scheduler { s, _ := policy.New(name, 0); return s }, nil
	}
	if model == "" {
		return nil, fmt.Errorf("-policy MLCR requires -model")
	}
	master, err := mlcr.LoadFile(model)
	if err != nil {
		return nil, fmt.Errorf("load model %s: %w", model, err)
	}
	qb := drl.NewQBatcher(master.Agent().Online(), batch)
	return func() platform.Scheduler {
		s := master.Clone()
		s.SetBatcher(qb)
		return s
	}, nil
}
