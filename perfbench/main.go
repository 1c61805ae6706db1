// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks every output it produces, and prints
// its metrics; the last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics.
//
//	go run . --workload evaluate --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// instrumentation in the way. With --trace 1 it composes the same pipeline
// from the layers' exported pieces, times each layer through shims, checks
// that the composition reproduces the untraced call's counters exactly,
// and prints the per-layer metrics plus a self-time table. README.md lists
// the workloads, the metrics and the end-to-end metric each layer moves.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is stamped by run.sh from git when the checkout has one.
var commit = "unknown"

// outcome is what one workload run reports.
type outcome struct {
	tally   tally
	metrics map[string]float64
	samples int      // per-operation latency samples behind the percentiles
	notes   []string // extra human-readable lines (layer tables)
}

// workload runs one workload for the given time; trace selects the traced
// (per-layer) run instead of the end-to-end one.
type workload func(seed uint64, seconds time.Duration, trace bool) (*outcome, error)

var workloadsByName = map[string]workload{
	"optimize":    runOptimize,
	"evaluate":    runEvaluate,
	"serve":       runServe,
	"adversarial": runAdversarial,
}

func main() {
	name := flag.String("workload", "", "workload: optimize, evaluate, serve or adversarial")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 10, "length of the timed section")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead")
	flag.Parse()

	run, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	trace := *traceFlag == 1
	// One P: with more, the garbage collector's idle mark workers burn
	// whatever CPU is free and make the CPU-time metrics depend on the
	// machine's load, and serve's goroutines wake each other across
	// virtual CPUs, whose wake-up latency is the host's, not halod's.
	// Only the traced serve rounds run on more (see traceServe).
	runtime.GOMAXPROCS(1)
	printEnv(*name, *seed, trace)

	out, err := run(*seed, time.Duration(*seconds)*time.Second, trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	names := endToEnd
	if trace {
		names = perLayer
	}
	res, err := render(out, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	for _, line := range out.notes {
		fmt.Fprintln(w, line)
	}
	printTable(w, out, names, trace)
	for _, f := range out.tally.notes {
		fmt.Fprintln(w, "FAILED:", f)
	}
	fmt.Fprintln(w, string(res))
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a run with tracing off, in BENCHMARK.json's
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"optimize_s", "s"},
	{"evaluate_s", "s"},
	{"l1d_miss_ratio", "ratio"},
	{"cycle_speedup", "ratio"},
	{"worst_cycle_speedup", "ratio"},
	{"frag_pct", "%"},
	{"alloc_mb", "MB"},
	{"request_p50_ms", "ms"},
	{"request_p99_ms", "ms"},
	{"requests_per_s", "1/s"},
}

// perLayer are the metrics of a traced run, grouped by layer.
var perLayer = []metricDef{
	{"workloads.build_s", "s"},
	{"vm.predecode_s", "s"}, {"vm.decoded_insts", "count"}, {"vm.fused_sites", "count"},
	{"vm.self_s", "s"}, {"vm.steps", "count"}, {"vm.events", "count"},
	{"vm.steps_per_s", "1/s"}, {"vm.tlb_hit_ratio", "ratio"},
	{"cache.new_s", "s"}, {"cache.consume_s", "s"}, {"cache.events", "count"},
	{"cache.ns_per_event", "ns"}, {"cache.l1d_misses", "count"}, {"cache.stall_cycles", "count"},
	{"alloc.calls", "count"}, {"alloc.ns_per_call", "ns"},
	{"halloc.calls", "count"}, {"halloc.ns_per_call", "ns"}, {"halloc.grouped_ratio", "ratio"},
	{"halloc.forwarded", "count"}, {"halloc.frag_pct", "%"},
	{"profile.consume_s", "s"}, {"profile.events", "count"}, {"profile.ns_per_event", "ns"},
	{"profile.finish_s", "s"}, {"profile.graph_nodes", "count"},
	{"hds.analyze_s", "s"}, {"hds.sequitur_s", "s"}, {"hds.rules", "count"},
	{"group.form_s", "s"}, {"group.groups", "count"},
	{"identify.build_s", "s"}, {"identify.sites", "count"},
	{"rewrite.instrument_s", "s"}, {"rewrite.lower_s", "s"},
	{"rewrite.dropped_conjs", "count"}, {"rewrite.added_steps", "count"},
	{"profstore.encode_s", "s"}, {"profstore.decode_s", "s"}, {"profstore.merge_s", "s"},
	{"profstore.image_bytes", "bytes"},
	{"measure.run_s", "s"},
	{"service.upload_ms", "ms"}, {"service.merge_ms", "ms"}, {"service.optimize_cold_ms", "ms"},
	{"service.optimize_cached_ms", "ms"}, {"service.fetch_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"}, {"service.coalesced", "count"},
	{"service.wall_p50_ms", "ms"}, {"service.wall_p99_ms", "ms"}, {"service.wall_requests_per_s", "1/s"},
	{"go.gc_cycles", "count"}, {"go.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"}, {"trace.unattributed_pct", "%"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// render builds the result line. A metric the workload did not set is a
// bug in the benchmark, not a zero.
func render(out *outcome, names []metricDef) ([]byte, error) {
	res := jsonResult{
		Correct:   out.tally.failed == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   make(map[string]jsonMetric, len(names)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, m := range names {
		v, ok := out.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return json.Marshal(res)
}

// printTable prints every metric by name with its unit, plus error_rate
// and the sample count behind the latency percentiles.
func printTable(w *bufio.Writer, out *outcome, names []metricDef, trace bool) {
	for _, m := range names {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.name, out.metrics[m.name], m.unit)
	}
	rate := 0.0
	if out.tally.attempted > 0 {
		rate = float64(out.tally.failed) / float64(out.tally.attempted)
	}
	fmt.Fprintf(w, "%-28s %16.6g %s\n", "error_rate", rate, "ratio")
	if !trace {
		fmt.Fprintf(w, "%-28s %16d %s\n", "latency_samples", out.samples, "count")
	}
}

// printEnv records the machine and build a run was made on.
func printEnv(name string, seed uint64, trace bool) {
	fmt.Printf("perfbench workload=%s seed=%d trace=%v\n", name, seed, trace)
	fmt.Printf("env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// tally counts checked operations; every failed check feeds error_rate.
type tally struct {
	attempted, failed int
	notes             []string
}

// check records one checked operation, keeping the first failures' notes.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}

// sortedKeys returns a map's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
