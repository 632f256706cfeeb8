// Command perfbench is the repository benchmark: four model-checking
// workloads, each chosen so that one layer of the explorer does most of the
// work in it and little in another, driven through the public API
// (sandtable sessions, explorer.Checker with transport.DialTCP peers, and
// Confirm) from one process.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload raft-sym-serial --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run measures the peak live heap in a footprint leg,
// times checkpoint resumes, then repeats untraced exploration legs for
// --seconds and reports the end-to-end metrics as medians over legs. With
// --trace 1 it alternates untraced and traced legs, reports the per-layer
// metrics of the traced legs plus the tracing overhead, and writes the
// aggregated spans under .bench_build/perfbench/. See README.md. Every leg's outputs are verified; a failed
// check counts as a failed operation. The last line of standard output is
// the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// outDir holds everything a run writes, relative to the repository root.
const outDir = ".bench_build/perfbench"

// setupReps is how many times a run times set-up before reporting the median.
const setupReps = 51

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 0, "selects the instance's workload value alphabet")
	seconds := flag.Int("seconds", 15, "how long to repeat measured legs")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	inst := flag.String("instance", "", "held-out model to run instead of the workload's default")
	flag.Parse()
	if err := run(*name, *inst, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name, instName string, seed int64, budget time.Duration, traced bool) error {
	var w *workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	workDir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	e, err := newEnv(w, instName, seed, workDir)
	if err != nil {
		return err
	}
	printHost(w, e, seed)

	b := &bench{e: e, budget: budget}
	var metrics map[string]metric
	if traced {
		metrics, err = b.tracedRun(seed)
	} else {
		metrics, err = b.timedRun()
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printHost records the host and build with every result.
func printHost(w *workload, e *env, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host, _ := json.Marshal(map[string]any{
		"host": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"commit": commit, "source_sha256": os.Getenv("PERFBENCH_SOURCE"),
		},
		"workload": w.name, "instance": e.inst.name, "seed": seed, "alphabet": e.cfg.Workload,
		"peers": w.peers, "label": e.label,
	})
	fmt.Println(string(host))
}
