// Command mlcr-server serves the FStartBench catalog over HTTP behind a
// chosen scheduling policy, in two modes:
//
//   - -mode sim (default): the deterministic single-platform gateway —
//     every decision serialized onto one simulated platform, with full
//     trace/audit endpoints. Reproducible, but one coarse lock.
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
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mlcr/internal/api"
	"mlcr/internal/drl"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
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
		"policy: LRU, FaasCache, KeepAlive, Greedy-Match, Cost-Greedy, MLCR")
	model := flag.String("model", "", "trained MLCR model path (required for -policy MLCR)")
	slots := flag.Int("slots", 4, "MLCR candidate container slots (must match the trained model)")
	poolMB := flag.Float64("pool", 4096, "warm pool capacity in MB (0 = unlimited)")
	shards := flag.Int("shards", 16, "gateway mode: pool shards (rounded up to a power of two)")
	fastTTL := flag.Duration("fast-ttl", 0, "gateway mode: max idle age in the lock-free fast layer (0 = unbounded)")
	batch := flag.Int("batch", 64, "gateway mode: max coalesced DQN inference batch (MLCR policy)")
	traceOut := flag.String("trace-out", "", "sim mode: write the run's Chrome trace JSON here on shutdown")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus exposition-format metrics snapshot here on shutdown")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	flag.Parse()

	mkSched, mkEvict, err := factories(*policyName, *model, *slots, *batch, *mode == "gateway")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-server: %v\n", err)
		os.Exit(2)
	}

	// flush writes the shutdown artifacts; trace is sim-mode only (the
	// concurrent gateway records no deterministic event recording).
	var handler http.Handler
	var flush func()
	switch *mode {
	case "sim":
		srv, err := api.New(api.Config{
			Functions:      fstartbench.Functions(),
			PoolCapacityMB: *poolMB,
			NewScheduler:   mkSched,
			NewEvictor:     mkEvict,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlcr-server: %v\n", err)
			os.Exit(1)
		}
		handler = srv
		flush = func() {
			writeArtifact(*traceOut, "trace", srv.WriteTrace)
			writeArtifact(*metricsOut, "metrics", srv.WriteMetricsText)
		}
	case "gateway":
		gw, err := api.NewGateway(api.GatewayConfig{
			Functions:      fstartbench.Functions(),
			PoolCapacityMB: *poolMB,
			NewScheduler:   mkSched,
			NewEvictor:     mkEvict,
			Shards:         *shards,
			FastTTL:        *fastTTL,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlcr-server: %v\n", err)
			os.Exit(1)
		}
		handler = gw
		flush = func() {
			if *traceOut != "" {
				fmt.Fprintln(os.Stderr, "mlcr-server: -trace-out ignored in gateway mode (no deterministic recording)")
			}
			writeArtifact(*metricsOut, "metrics", gw.WriteMetricsText)
		}
	default:
		fmt.Fprintf(os.Stderr, "mlcr-server: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if *pprofOn {
		// Profiling shares the listener: /debug/pprof/* goes to pprof,
		// everything else to the API server.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
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

// factories resolves the policy name into per-platform scheduler and
// evictor constructors. For MLCR the trained model is loaded once; in
// gateway mode each shard gets a Clone sharing the master's weights and
// one QBatcher so concurrent shards coalesce their forward passes.
func factories(name, model string, slots, batch int, gateway bool) (func() platform.Scheduler, func() pool.Evictor, error) {
	switch name {
	case "LRU":
		return func() platform.Scheduler { return policy.NewLRU() },
			func() pool.Evictor { return policy.NewLRU().Evictor() }, nil
	case "FaasCache":
		return func() platform.Scheduler { return policy.NewFaasCache() },
			func() pool.Evictor { return policy.NewFaasCache().Evictor() }, nil
	case "KeepAlive":
		return func() platform.Scheduler { return policy.NewKeepAlive() },
			func() pool.Evictor { return policy.NewKeepAlive().Evictor() }, nil
	case "Greedy-Match":
		return func() platform.Scheduler { return policy.NewGreedyMatch() },
			func() pool.Evictor { return policy.NewGreedyMatch().Evictor() }, nil
	case "Cost-Greedy":
		return func() platform.Scheduler { return policy.NewCostGreedy() },
			func() pool.Evictor { return policy.NewCostGreedy().Evictor() }, nil
	case "MLCR":
		if model == "" {
			return nil, nil, fmt.Errorf("-policy MLCR requires -model")
		}
		opts := experiments.Options{}
		opts.MLCR.Slots = slots
		opts = opts.WithDefaults()
		master := mlcr.New(opts.MLCR)
		f, err := os.Open(model)
		if err != nil {
			return nil, nil, err
		}
		lerr := master.Load(f)
		f.Close()
		if lerr != nil {
			return nil, nil, fmt.Errorf("load model %s: %w", model, lerr)
		}
		if !gateway {
			return func() platform.Scheduler { return master },
				func() pool.Evictor { return master.Evictor() }, nil
		}
		qb := drl.NewQBatcher(master.Agent().Online(), batch)
		return func() platform.Scheduler {
				s := master.Clone()
				s.SetBatcher(qb)
				return s
			},
			func() pool.Evictor { return master.Evictor() }, nil
	default:
		return nil, nil, fmt.Errorf("unknown policy %q", name)
	}
}
