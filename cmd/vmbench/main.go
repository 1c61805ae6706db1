// Command vmbench measures interpreter dispatch throughput: each golden
// workload's test-scale build is executed by both the reference switch
// interpreter and the predecoded threaded dispatcher, interleaved rep by
// rep, and the best-of-reps steps/sec and events/sec are reported. It
// backs the CI dispatch guard: with -baseline it checks the run against a
// committed BENCH_vm.json and fails when
//
//   - a workload's retired steps or delivered events differ from the
//     baseline's (these counters are the same on any machine, so
//     any difference is a code change), or
//   - the threaded engine's steps/sec is less than minSpeedup times the
//     switch engine's, both measured in this process (a ratio of two
//     same-machine numbers, so it does not depend on how fast the machine
//     is).
//
// Usage:
//
//	vmbench [-reps N] [-workloads a,b] [-out BENCH_vm.json]
//	        [-baseline BENCH_vm.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"halo/internal/mem"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// Result is one workload × engine throughput record. TLB figures are
// threaded-engine properties; they stay zero for the switch engine, which
// has no software TLB.
type Result struct {
	Workload     string  `json:"workload"`
	Engine       string  `json:"engine"`
	Steps        uint64  `json:"steps"`
	Events       uint64  `json:"events"`
	TLBHitRate   float64 `json:"tlb_hit_rate"`  // hits / (loads+stores)
	TLBMissRate  float64 `json:"tlb_miss_rate"` // misses / (loads+stores)
	NsPerRun     int64   `json:"ns_per_run"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Doc is the BENCH_vm.json document.
type Doc struct {
	Reps    int      `json:"reps"`
	Results []Result `json:"results"`
}

// countSink counts events without retaining them.
type countSink struct{ n uint64 }

func (s *countSink) ConsumeEvents(batch []vm.Event) { s.n += uint64(len(batch)) }

// bumpAlloc is the minimal allocator the benchmark runs under: dispatch
// throughput must not depend on allocator policy.
type bumpAlloc struct {
	next  uint64
	sizes map[uint64]uint64
	m     *mem.Memory
}

func newBump(m *mem.Memory) *bumpAlloc {
	return &bumpAlloc{next: mem.HeapBase, sizes: map[uint64]uint64{}, m: m}
}

func (b *bumpAlloc) Malloc(size uint64) uint64 {
	p := b.next
	b.next += (size + 15) &^ 15
	b.sizes[p] = size
	return p
}
func (b *bumpAlloc) Calloc(n, size uint64) uint64 { return b.Malloc(n * size) }
func (b *bumpAlloc) Realloc(p, size uint64) uint64 {
	np := b.Malloc(size)
	if old := b.sizes[p]; old > 0 {
		n := old
		if size < n {
			n = size
		}
		b.m.Copy(np, p, n)
	}
	return np
}
func (b *bumpAlloc) Free(p uint64) {}

// measure runs the workload once and reports retired steps, events and
// wall-clock.
func measure(name string, mode vm.DispatchMode) (Result, error) {
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	vm.Predecode(p) // decode outside the timed region, as real runs do
	m := mem.NewMemory()
	sink := &countSink{}
	v := vm.New(p, m, newBump(m), sink, vm.Config{Seed: 1000, Dispatch: mode})
	start := time.Now()
	if _, err := v.Run(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	ns := time.Since(start).Nanoseconds()
	sec := float64(ns) / 1e9
	engine := "threaded"
	if mode == vm.DispatchSwitch {
		engine = "switch"
	}
	res := Result{
		Workload:     name,
		Engine:       engine,
		Steps:        v.Steps(),
		Events:       sink.n,
		NsPerRun:     ns,
		StepsPerSec:  float64(v.Steps()) / sec,
		EventsPerSec: float64(sink.n) / sec,
	}
	if mode == vm.DispatchThreaded {
		if acc := v.Loads() + v.Stores(); acc > 0 {
			miss := v.TLBMisses()
			hits := acc - miss - v.TLBBypasses()
			res.TLBHitRate = float64(hits) / float64(acc)
			res.TLBMissRate = float64(miss) / float64(acc)
		}
	}
	return res, nil
}

// minSpeedup is the floor on threaded÷switch steps/sec. BENCH_vm.json
// records 3.3× (povray) and 4.1× (omnetpp); on a 2-vCPU VM repeated runs
// of unchanged code ranged 3.1–3.4× on povray. The floor sits below that
// spread so scheduler noise cannot trip it, while a change that makes the
// threaded engine a quarter slower on povray still does.
const minSpeedup = 2.5

var engines = []vm.DispatchMode{vm.DispatchSwitch, vm.DispatchThreaded}

func main() {
	var (
		reps     = flag.Int("reps", 5, "repetitions per configuration (best-of wins)")
		names    = flag.String("workloads", "povray,omnetpp", "comma-separated workloads")
		out      = flag.String("out", "", "write results as JSON to this file")
		baseline = flag.String("baseline", "", "check against a committed BENCH_vm.json")
	)
	flag.Parse()

	doc := Doc{Reps: *reps}
	for _, name := range strings.Split(*names, ",") {
		// Interleave the engines rep by rep so a slow spell on the machine
		// hits both, keeping their ratio meaningful.
		best := make([]Result, len(engines))
		for i := 0; i < *reps; i++ {
			for e, mode := range engines {
				r, err := measure(name, mode)
				if err != nil {
					fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
					os.Exit(1)
				}
				if r.EventsPerSec > best[e].EventsPerSec {
					best[e] = r
				}
			}
		}
		for _, r := range best {
			doc.Results = append(doc.Results, r)
			fmt.Printf("%-10s %-9s %12d steps  tlb %5.1f%%  %8.2fms  %11.0f steps/s  %11.0f events/s\n",
				r.Workload, r.Engine, r.Steps,
				r.TLBHitRate*100, float64(r.NsPerRun)/1e6, r.StepsPerSec, r.EventsPerSec)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *baseline != "" {
		if failed := checkBaseline(doc, *baseline); failed {
			os.Exit(1)
		}
	}
}

// checkBaseline reports whether the run fails the dispatch guard: exact
// steps/events counters against the committed baseline, and the
// in-process threaded÷switch steps/sec ratio against minSpeedup.
func checkBaseline(doc Doc, path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: baseline: %v\n", err)
		return true
	}
	var base Doc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: baseline: %v\n", err)
		return true
	}
	type key struct{ workload, engine string }
	want := map[key]Result{}
	for _, r := range base.Results {
		want[key{r.Workload, r.Engine}] = r
	}
	failed := false
	switchSPS := map[string]float64{}
	for _, r := range doc.Results {
		b, ok := want[key{r.Workload, r.Engine}]
		if !ok {
			fmt.Fprintf(os.Stderr, "vmbench: %s %s: not in baseline\n", r.Workload, r.Engine)
			failed = true
			continue
		}
		if r.Steps != b.Steps || r.Events != b.Events {
			fmt.Fprintf(os.Stderr, "vmbench: %s %s counters changed: steps %d -> %d, events %d -> %d\n",
				r.Workload, r.Engine, b.Steps, r.Steps, b.Events, r.Events)
			failed = true
		}
		if r.Engine == "switch" {
			switchSPS[r.Workload] = r.StepsPerSec
		}
	}
	for _, r := range doc.Results {
		sw := switchSPS[r.Workload]
		if r.Engine != "threaded" || sw == 0 {
			continue
		}
		ratio := r.StepsPerSec / sw
		if ratio < minSpeedup {
			fmt.Fprintf(os.Stderr, "vmbench: %s threaded/switch steps/s %.2fx, below the %.1fx floor\n",
				r.Workload, ratio, minSpeedup)
			failed = true
		} else {
			fmt.Printf("%s: threaded/switch steps/s %.2fx (floor %.1fx)\n",
				r.Workload, ratio, minSpeedup)
		}
	}
	return failed
}
