package main

import (
	"fmt"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/rewrite"
	"halo/internal/workloads"
)

// The paper programs in presentation order, the evaluation subset (one
// program per behaviour the paper discusses) and the adversarial programs.
var (
	paperPrograms = []string{"health", "ft", "analyzer", "ammp", "art", "equake",
		"povray", "omnetpp", "xalanc", "leela", "roms"}
	evalPrograms = []string{"povray", "omnetpp", "xalanc", "leela", "roms"}
	advPrograms  = []string{"adv-frag", "adv-adjacent", "adv-phase", "adv-regress"}
)

// machine is the simulated evaluation machine.
var machine = cache.XeonW2195()

// pipelineConfig applies a program's artifact-appendix flags. Synthesis
// runs on one worker: every workload drives the pipeline from a single
// goroutine.
func pipelineConfig(w workloads.Workload, profileSeed uint64, recordTrace bool) core.Config {
	cfg := core.Config{ProfileSeed: profileSeed, SynthesisWorkers: 1}
	cfg.Profile.RecordTrace = recordTrace
	if w.MaxGroups > 0 {
		cfg.Group.MaxGroups = w.MaxGroups
		cfg.HDS.MaxGroups = w.MaxGroups
	}
	return cfg
}

func hallocConfig(w workloads.Workload) halloc.Config {
	return halloc.Config{
		ChunkSize:         w.ChunkSize,
		NoSpare:           w.NoSpare,
		AlwaysReuseChunks: w.AlwaysReuse,
	}
}

// refPolicy rewrites the ref-scale build with the sites chosen on the
// test profile and lowers the selectors against the ref binary's bits
// (profile on test, measure on ref; the builds share call-site addresses).
func refPolicy(w workloads.Workload, ref *isa.Program, opt *core.Optimized) (measure.Policy, error) {
	rw, err := rewrite.Instrument(ref, opt.Selectors.Sites)
	if err != nil {
		return measure.Policy{}, fmt.Errorf("%s: ref rewrite: %w", w.Name, err)
	}
	sels, _ := lower(opt, rw)
	return haloPolicy(w, rw, sels), nil
}

// lower maps the selectors onto a rewritten binary's group-state bits.
func lower(opt *core.Optimized, rw *rewrite.Result) ([]halloc.BitSelector, int) {
	var sels []halloc.BitSelector
	dropped := 0
	for _, s := range opt.Selectors.Selectors {
		lowered, d := rewrite.LowerSelectors(s.Conj, rw.SiteBits)
		dropped += d
		if len(lowered) > 0 {
			sels = append(sels, halloc.BitSelector{Group: s.Group, Conj: lowered})
		}
	}
	return sels, dropped
}

func haloPolicy(w workloads.Workload, rw *rewrite.Result, sels []halloc.BitSelector) measure.Policy {
	return measure.Policy{
		Kind:      measure.HALO,
		Rewritten: rw.Prog,
		Selectors: sels,
		NumBits:   rw.NumBits,
		Halloc:    hallocConfig(w),
	}
}

var jemalloc = measure.Policy{Kind: measure.Jemalloc}

// checkPair checks that the optimised run computed what the baseline did
// and left the same heap behind.
func checkPair(t *tally, label string, jem, halo measure.RunResult) {
	t.check(jem.Result == halo.Result &&
		jem.TotalLiveObjects() == halo.TotalLiveObjects() &&
		jem.TotalLiveBytes() == halo.TotalLiveBytes(),
		"%s: halo run (result %d, %d live objects, %d live bytes) differs from jemalloc (%d, %d, %d)",
		label, halo.Result, halo.TotalLiveObjects(), halo.TotalLiveBytes(),
		jem.Result, jem.TotalLiveObjects(), jem.TotalLiveBytes())
}

// sameCounters reports whether two runs retired identical simulated work.
func sameCounters(a, b measure.RunResult) bool {
	return a.Result == b.Result && a.Steps == b.Steps && a.Loads == b.Loads &&
		a.Stores == b.Stores && a.Cache.L1D.Misses == b.Cache.L1D.Misses &&
		a.GroupedAllocs == b.GroupedAllocs
}

// simAgg aggregates the simulated metrics over programs × seeds.
type simAgg struct {
	miss, speed []float64
	perProg     map[string][]float64 // cycle speedups
	frag        map[string][]float64 // HALO fragmentation at peak
}

func newSimAgg() *simAgg {
	return &simAgg{perProg: map[string][]float64{}, frag: map[string][]float64{}}
}

func (a *simAgg) add(prog string, jem, halo measure.RunResult) {
	miss := 1.0
	if jem.Cache.L1D.Misses > 0 {
		miss = float64(halo.Cache.L1D.Misses) / float64(jem.Cache.L1D.Misses)
	}
	speed := float64(jem.Cycles) / float64(halo.Cycles)
	a.miss = append(a.miss, miss)
	a.speed = append(a.speed, speed)
	a.perProg[prog] = append(a.perProg[prog], speed)
	a.frag[prog] = append(a.frag[prog], halo.FragPct)
}

// fill sets l1d_miss_ratio and cycle_speedup (geomeans over programs ×
// seeds), worst_cycle_speedup (the lowest per-program median) and
// frag_pct (the median over programs of each program's median).
func (a *simAgg) fill(m map[string]float64) {
	m["l1d_miss_ratio"] = geomean(a.miss)
	m["cycle_speedup"] = geomean(a.speed)
	worst := 0.0
	var frags []float64
	for i, prog := range sortedKeys(a.perProg) {
		if s := median(a.perProg[prog]); i == 0 || s < worst {
			worst = s
		}
		frags = append(frags, median(a.frag[prog]))
	}
	m["worst_cycle_speedup"] = worst
	m["frag_pct"] = median(frags)
}
