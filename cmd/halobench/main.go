// Command halobench regenerates the paper's evaluation tables and figures
// (§5) over the simulated substrate, printing aligned text tables and
// optionally writing machine-readable JSON, in the spirit of the
// artifact's `halo baseline` / `halo run` / `halo plot` workflow.
//
// Usage:
//
//	halobench [-run all|fig9,fig12,fig13,fig14,fig15,tab1,baseline,roms,adversarial]
//	          [-trials N] [-quick] [-workloads a,b,c] [-parallel N]
//	          [-json out.json] [-v]
//
// The "adversarial" experiment runs the hostile-heap workload family (the
// internal/adversary search engine's discovered sequences) through the
// full pipeline and reports where grouping helps, is neutral, hurts
// (REGRESSED) or is defeated, plus a shadow-heap corruption verdict per
// workload.
//
// The -json document carries the rendered tables plus one flat result
// record per measured workload×technique pair (miss reduction, speedup,
// simulated seconds, and a regressed flag set when the verdict the tables
// print reads REGRESSED), a "metrics" section (a snapshot of the process
// metrics registry plus each workload's pipeline stage spans: profile,
// group, identify, rewrite, lower, hds/sequitur, hds/sets and
// hds/setpack), and the sweep's wall-clock. Per-layer throughput is
// perfbench's job (perfbench/README.md); this document records what the
// experiments found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"halo/internal/experiments"
	"halo/internal/obs"
)

// jsonMetrics is the observability section of the -json document: the
// Default registry's snapshot (VM, pool and profiler substrate counters)
// and the per-workload pipeline stage spans.
type jsonMetrics struct {
	Global map[string]float64           `json:"global"`
	Stages []experiments.WorkloadStages `json:"stages"`
}

// jsonDoc is the -json output document.
type jsonDoc struct {
	Trials    int                       `json:"trials"`
	Quick     bool                      `json:"quick"`
	Seed      uint64                    `json:"seed"`
	Parallel  int                       `json:"parallel"`
	Workloads []string                  `json:"workloads,omitempty"`
	Results   []experiments.BenchResult `json:"results"`
	Metrics   jsonMetrics               `json:"metrics"`
	Tables    []*experiments.Table      `json:"tables"`
	WallNs    int64                     `json:"wall_ns"`
}

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiment ids (fig9, fig12, fig13, fig14, fig15, tab1, baseline, roms, adversarial) or 'all'")
		trials    = flag.Int("trials", 5, "measured trials per configuration (paper: 10)")
		quick     = flag.Bool("quick", false, "reduced trials and test-scale inputs")
		workloads = flag.String("workloads", "", "restrict to a comma-separated workload subset")
		parallel  = flag.Int("parallel", 0, "workload-level worker pool per experiment (0 = one per CPU, 1 = serial)")
		jsonOut   = flag.String("json", "", "also write machine-readable results as JSON to this file")
		verbose   = flag.Bool("v", false, "log progress to stderr")
		seed      = flag.Uint64("seed", 0, "measurement seed base (0 = default)")
	)
	flag.Parse()

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	opts := experiments.Options{
		Trials:   *trials,
		Quick:    *quick,
		Log:      logw,
		Seed:     *seed,
		Parallel: *parallel,
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}

	engine := experiments.NewEngine(opts)
	ids := strings.Split(*run, ",")
	start := time.Now()
	tables, err := engine.Run(ids)
	wall := time.Since(start)
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		doc := jsonDoc{
			Trials:    opts.Trials,
			Quick:     *quick,
			Seed:      *seed,
			Parallel:  *parallel,
			Workloads: opts.Workloads,
			Results:   engine.BenchResults(),
			Metrics: jsonMetrics{
				Global: obs.Default.Snapshot(),
				Stages: engine.StageStats(),
			},
			Tables: tables,
			WallNs: wall.Nanoseconds(),
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}
