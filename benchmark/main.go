// Command benchmark is the repository's performance benchmark: five
// fixed workloads over the synthesis engine, each run in its own process
// as one closed-loop client, reporting end-to-end metrics (untraced) or
// per-layer metrics (traced) and checking every output for correctness.
//
//	go run . -workload synth-suite -seed 0 -seconds 10 -trace 0
//	go run . -seed 0 -o runs.jsonl        # every workload, one child process each
//	go run . -compare base.jsonl head.jsonl
//
// With -workload, the last line of standard output is the result as one
// JSON object. The exit code is non-zero when a workload cannot be set
// up or any output is wrong. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: synth-suite, sweep-d104, cache-hit-d26, cache-miss-d26 or survive-d26; empty runs all five")
	flag.Uint64Var(&cfg.seed, "seed", 0, "input seed; 0 runs the bundled specs unmodified")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "busy seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "engine and campaign workers")
	flag.StringVar(&cfg.spans, "spans", "", "traced runs: write the spans to this file as JSON lines")
	out := flag.String("o", "", "append the run's record to this file, for -compare")
	cmp := flag.Bool("compare", false, "compare two files of records written by -o: base head")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.jsonl head.jsonl")
			os.Exit(2)
		}
		worse, err := compare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 || cfg.workers < 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1, -workers at least 1 and -seconds more than 0")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	cfg.tmp = ".bench_build"
	cfg.setupSeconds = 0.5

	if cfg.workload == "" {
		if err := runAll(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	metrics := endToEnd
	if cfg.trace {
		metrics = perLayer
	}
	fmt.Printf("%s seed=%d trace=%v workers=%d gomaxprocs=%d: %d ops, %d failed\n",
		cfg.workload, cfg.seed, cfg.trace, cfg.workers, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	for _, m := range metrics {
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if !cfg.trace {
		fmt.Printf("  %-30s %14.6g ms (recorded by -o for -compare)\n", "op_p50_ms", res.opP50Ms)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, record{cfg.workload, cfg.seed, cfg.trace, *res, res.opP50Ms}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb and setup_s belong to one workload, passing args on. It
// runs them all even after one fails, and reports the failures.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []error
	for _, w := range workloads {
		cmd := exec.Command(self, append(args[:len(args):len(args)], "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d workload(s) failed: %w", len(failed), errors.Join(failed...))
	}
	return nil
}
