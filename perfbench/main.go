// Command perfbench is the repository's benchmark. It drives the islands
// platform from outside, through the public functions of its modules, on one
// of three workloads:
//
//	compute-large  MPDATA on 512x128x64 through exec.Runner, three strategies
//	serve-small    small catalog jobs through a two-replica fleet
//	serve-cold     cold jobs through one tuned replica
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-small --seed 3 --seconds 20 --trace 0
//
// It prints the host and run record, a table of every metric with its unit
// and sample count, and as its last line one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, and the spans
// the run timed are written as Chrome trace-event JSON under --out. See
// README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	host     hostInfo
	spans    *tracer // nil unless tracing
}

// workloads maps --workload to its driver. BENCHMARK.json gates
// compute-large and serve-small; serve-cold runs by hand (README.md).
var workloads = map[string]func(runConfig) (*outcome, error){
	"compute-large": runComputeLarge,
	"serve-small":   runServeDefault,
	"serve-cold":    runServeDefault,
}

// runServeDefault runs a serve workload on the servers' own engines.
func runServeDefault(c runConfig) (*outcome, error) { return runServe(c, nil) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "compute-large, serve-small or serve-cold")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for the traced runs' span files")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, host: readHost()}
	if cfg.trace {
		cfg.spans = newTracer()
	}
	ri := runInfo{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	// The run script runs from the root of the tree it measures.
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	ri.Commit, ri.SourceDigest = readRun(root)
	rec, err := json.Marshal(struct {
		Host hostInfo `json:"host"`
		Run  runInfo  `json:"run"`
	}{cfg.host, ri})
	if err != nil {
		return err
	}
	fmt.Printf("record: %s\n", rec)

	out, err := fn(cfg)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	out.values.set("peak_rss_mb", rss, 1)
	if cfg.trace {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := cfg.spans.writeChrome(path, string(rec)); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %s\n", path)
	}
	return writeReport(os.Stdout, out, cfg.trace)
}
