// Command bench is the repository's benchmark: two HTTP-serving and two
// trace-replay workloads, eight end-to-end metrics and an outside-in
// ladder of per-layer metrics (see README.md in this directory).
//
//	bash bench/run.sh --workload http_churn --seed 1 --seconds 10 --trace 0
//
// runs one workload and ends with one JSON result line — the form
// BENCHMARK.json's command takes. Without --workload, every workload is
// run in its own child process (so peak RSS is per workload), untraced
// and then traced, and the collected results are written with -out for
// -compare.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	cfg := defaultConfig()
	traceFlag := 0
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and end with its JSON result line")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced laps")
	flag.Float64Var(&cfg.scale, "scale", cfg.scale, "multiply every lap size (local use; comparisons need equal scale)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1: write the sampled spans here as JSONL")
	only := flag.String("only", "", "all-workloads mode: run only this workload")
	runs := flag.Int("runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "all-workloads mode: write the result set here (input of -compare)")
	list := flag.Bool("list", false, "list workloads and metrics")
	validate := flag.String("validate", "", "check this BENCHMARK.json against the benchmark's tables")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()
	cfg.trace = traceFlag != 0

	switch {
	case *list:
		printList()
	case *validate != "":
		if err := validateFile(*validate); err != nil {
			fatal(err)
		}
		fmt.Println("ok:", *validate, "matches the benchmark's tables")
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result-set files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case cfg.workload != "":
		r, err := runWorkload(&cfg)
		if err != nil {
			fatal(err)
		}
		r.print(os.Stdout, cfg.trace)
		if !r.res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(&cfg, *only, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadDefs {
		fmt.Printf("  %-12s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (unit, better, regression bound):")
	for _, m := range endToEnd {
		fmt.Printf("  %-30s %-7s %-7s %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics (unit, better, predicted to move):")
	for _, m := range perLayer {
		fmt.Printf("  %-30s %-7s %-7s %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}

// runRecord is one child run in a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultSet is what all-workloads mode writes and -compare reads. No
// run of the benchmark claims a gain, so Claim is always null.
type resultSet struct {
	Seed    int64       `json:"seed"`
	Scale   float64     `json:"scale"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
	Claim   *string     `json:"claim"`
}

// runAll runs each workload in a child process of its own, untraced and
// then traced, relaying the child's report.
func runAll(cfg *config, only string, runs int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds}
	failed := false
	for _, w := range workloadDefs {
		if only != "" && only != w.Name {
			continue
		}
		for i := 0; i < runs; i++ {
			for trace := 0; trace <= 1; trace++ {
				seed := cfg.seed + int64(i)
				args := []string{
					"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
					"--scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
				}
				if trace == 1 && cfg.traceOut != "" {
					args = append(args, "--trace-out", fmt.Sprintf("%s.%s.%d", cfg.traceOut, w.Name, seed))
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, runErr := cmd.Output()
				os.Stdout.Write(stdout)
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				rec := runRecord{Workload: w.Name, Seed: seed, Trace: trace}
				if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
					return fmt.Errorf("%s: no result line (%v): %v", w.Name, runErr, err)
				}
				if runErr != nil || !rec.Result.Correct {
					failed = true
				}
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	if only != "" && len(set.Runs) == 0 {
		return fmt.Errorf("unknown workload %q (try -list)", only)
	}
	summary, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, append(summary, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(strings.TrimSpace(string(summary)))
	if failed {
		return fmt.Errorf("an output check failed")
	}
	return nil
}
