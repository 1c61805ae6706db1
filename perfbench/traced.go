package main

import (
	"fmt"
	"time"

	"halo/internal/alloc"
	"halo/internal/bits"
	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/group"
	"halo/internal/halloc"
	"halo/internal/hds"
	"halo/internal/identify"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/mem"
	"halo/internal/obs"
	"halo/internal/profile"
	"halo/internal/rewrite"
	"halo/internal/vm"
)

// acc accumulates one traced pass: per-layer seconds and counts under
// their metric names, plus internal components under names starting "_".
type acc struct {
	v     map[string]float64
	frags []float64
}

func newAcc() *acc { return &acc{v: map[string]float64{}} }

func (a *acc) add(name string, x float64) { a.v[name] += x }

func (a *acc) since(name string, start time.Time) { a.v[name] += time.Since(start).Seconds() }

// sinkShim times the event sink the VM flushes batches to.
type sinkShim struct {
	inner  vm.EventSink
	ns     int64
	events uint64
}

func (s *sinkShim) ConsumeEvents(batch []vm.Event) {
	start := time.Now()
	s.inner.ConsumeEvents(batch)
	s.ns += time.Since(start).Nanoseconds()
	s.events += uint64(len(batch))
}

// allocShim times an allocator's malloc-family calls and forwards the call
// site to allocators that classify by it.
type allocShim struct {
	alloc.Allocator
	site  vm.SiteAware
	ns    int64
	calls uint64
}

func newAllocShim(inner alloc.Allocator) *allocShim {
	s := &allocShim{Allocator: inner}
	s.site, _ = inner.(vm.SiteAware)
	return s
}

func (s *allocShim) SetAllocSite(site isa.Addr) {
	if s.site != nil {
		s.site.SetAllocSite(site)
	}
}

func (s *allocShim) Malloc(size uint64) uint64 {
	start := time.Now()
	p := s.Allocator.Malloc(size)
	s.ns += time.Since(start).Nanoseconds()
	s.calls++
	return p
}

func (s *allocShim) Calloc(n, size uint64) uint64 {
	start := time.Now()
	p := s.Allocator.Calloc(n, size)
	s.ns += time.Since(start).Nanoseconds()
	s.calls++
	return p
}

func (s *allocShim) Realloc(ptr, size uint64) uint64 {
	start := time.Now()
	p := s.Allocator.Realloc(ptr, size)
	s.ns += time.Since(start).Nanoseconds()
	s.calls++
	return p
}

func (s *allocShim) Free(ptr uint64) {
	start := time.Now()
	s.Allocator.Free(ptr)
	s.ns += time.Since(start).Nanoseconds()
	s.calls++
}

// tracedVMRun runs v and books the VM's self time: the Run wall time
// minus the time spent in the sink and the allocator the VM calls.
func tracedVMRun(a *acc, v *vm.VM, sink *sinkShim, vmAlloc *allocShim) (int64, error) {
	start := time.Now()
	res, err := v.Run()
	wall := time.Since(start).Seconds()
	a.add("_vm_run_s", wall)
	a.add("vm.self_s", wall-float64(sink.ns+vmAlloc.ns)/1e9)
	a.add("vm.steps", float64(v.Steps()))
	a.add("vm.events", float64(sink.events))
	acc := float64(v.Loads() + v.Stores())
	a.add("_tlb_acc", acc)
	a.add("_tlb_hit", acc-float64(v.TLBMisses()+v.TLBBypasses()))
	return res, err
}

// tracedPredecode decodes p for the threaded dispatcher, timed.
func tracedPredecode(a *acc, p *isa.Program) {
	start := time.Now()
	d := vm.Predecode(p)
	a.since("vm.predecode_s", start)
	a.add("vm.decoded_insts", float64(d.Insts()))
	a.add("vm.fused_sites", float64(d.FusedSites()))
}

// tracedProfile is core.Profile composed from its pieces with the profiler
// and the allocator behind timing shims.
func tracedProfile(a *acc, p *isa.Program, cfg core.Config) (*profile.Profile, error) {
	tracedPredecode(a, p)
	start := time.Now()
	prof := profile.New(p, cfg.Profile)
	memory := mem.NewMemory()
	fb := newAllocShim(alloc.NewSizeSeg(mem.NewOS(memory)))
	sink := &sinkShim{inner: prof}
	a.since("_profile_new_s", start)
	v := vm.New(p, memory, fb, sink, vm.Config{
		Seed:      cfg.ProfileSeed,
		MaxSteps:  cfg.ProfileMaxSteps,
		BatchSize: cfg.ProfileBatchSize,
	})
	if _, err := tracedVMRun(a, v, sink, fb); err != nil {
		return nil, fmt.Errorf("traced profiling run: %w", err)
	}
	a.add("profile.consume_s", float64(sink.ns)/1e9)
	a.add("profile.events", float64(sink.events))
	a.add("_alloc_s", float64(fb.ns)/1e9)
	a.add("alloc.calls", float64(fb.calls))
	start = time.Now()
	out := prof.Finish()
	a.since("profile.finish_s", start)
	a.add("profile.graph_nodes", float64(out.Graph.NumNodes()))
	return out, nil
}

// tracedSynthesis is core.OptimizeFromProfile composed from group.Form,
// identify.BuildParallel, rewrite.Instrument and rewrite.LowerSelectors.
func tracedSynthesis(a *acc, p *isa.Program, prof *profile.Profile, cfg core.Config) (*core.Optimized, error) {
	gp := cfg.Group
	if gp.Workers == 0 {
		gp.Workers = cfg.SynthesisWorkers
	}
	start := time.Now()
	groups := group.Form(prof.Graph, gp)
	for _, c := range prof.Contexts {
		c.Group = -1
	}
	for _, g := range groups {
		for _, m := range g.Members {
			prof.Contexts[m].Group = g.ID
		}
	}
	a.since("group.form_s", start)
	a.add("group.groups", float64(len(groups)))

	start = time.Now()
	sel := identify.BuildParallel(groups, prof.Contexts, cfg.SynthesisWorkers)
	a.since("identify.build_s", start)
	a.add("identify.sites", float64(len(sel.Sites)))

	start = time.Now()
	rw, err := rewrite.Instrument(p, sel.Sites)
	a.since("rewrite.instrument_s", start)
	if err != nil {
		return nil, fmt.Errorf("traced rewrite: %w", err)
	}
	opt := &core.Optimized{Input: p, Profile: prof, Groups: groups, Selectors: sel, Rewrite: rw}
	start = time.Now()
	opt.BitSelectors, opt.DroppedConjs = lower(opt, rw)
	a.since("rewrite.lower_s", start)
	a.add("rewrite.dropped_conjs", float64(opt.DroppedConjs))
	return opt, nil
}

// tracedHDS is core.AnalyzeHDS with its stage spans read back.
func tracedHDS(a *acc, prof *profile.Profile, cfg core.Config) *hds.Result {
	hc := cfg.HDS
	hc.Workers = cfg.SynthesisWorkers
	tr := obs.NewTrace()
	hc.Trace = tr
	start := time.Now()
	res := hds.Analyze(prof, hc)
	a.since("hds.analyze_s", start)
	for _, sp := range tr.Spans() {
		if sp.Name == "hds/sequitur" {
			a.add("hds.sequitur_s", float64(sp.DurNs)/1e9)
		}
	}
	a.add("hds.rules", float64(res.Rules))
	return res
}

// tracedMeasure is measure.Run for the jemalloc and HALO policies,
// composed from mem, alloc.NewSizeSeg, halloc.New with the policy's
// selector classifier, cache.New and vm.New, with the sink and both
// allocators behind timing shims.
func tracedMeasure(a *acc, p *isa.Program, pol measure.Policy, seed uint64) (measure.RunResult, error) {
	memory := mem.NewMemory()
	osm := mem.NewOS(memory)
	fb := newAllocShim(alloc.NewSizeSeg(osm))
	vmAlloc := fb
	var galloc *halloc.GroupAlloc
	var state *bits.Vec
	prog := p
	switch pol.Kind {
	case measure.Jemalloc:
	case measure.HALO:
		n := pol.NumBits
		if n == 0 {
			n = vm.DefaultGroupBits
		}
		state = bits.New(n)
		galloc = halloc.New(osm, fb, halloc.NewSelectorClassifier(state, pol.Selectors), pol.Halloc)
		vmAlloc = newAllocShim(galloc)
		prog = pol.Rewritten
	default:
		return measure.RunResult{}, fmt.Errorf("traced measure: unsupported policy %v", pol.Kind)
	}
	start := time.Now()
	hier := cache.New(machine)
	a.since("cache.new_s", start)
	sink := &sinkShim{inner: hier}
	v := vm.New(prog, memory, vmAlloc, sink, vm.Config{Seed: seed, GroupState: state})
	res, err := tracedVMRun(a, v, sink, vmAlloc)
	if err != nil {
		return measure.RunResult{}, fmt.Errorf("traced %s run: %w", pol.Kind, err)
	}
	a.add("cache.consume_s", float64(sink.ns)/1e9)
	a.add("cache.events", float64(sink.events))
	a.add("cache.l1d_misses", float64(hier.Stats().L1D.Misses))
	a.add("cache.stall_cycles", float64(hier.StallCycles()))
	a.add("_alloc_s", float64(fb.ns)/1e9)
	a.add("alloc.calls", float64(fb.calls))
	out := measure.RunResult{
		Result: res,
		Steps:  v.Steps(),
		Loads:  v.Loads(),
		Stores: v.Stores(),
		Cache:  hier.Stats(),
		Cycles: hier.Cycles(v.Steps()),
		Alloc:  fb.Stats(),
	}
	if galloc != nil {
		a.add("_halloc_s", float64(vmAlloc.ns-fb.ns)/1e9)
		a.add("halloc.calls", float64(vmAlloc.calls))
		out.GroupStats = galloc.Stats()
		out.GroupedAllocs = galloc.GroupedAllocs()
		out.ForwardedAlloc = galloc.ForwardedAllocs()
		out.FragPct, out.FragBytes = galloc.FragAtPeak()
		a.add("_halloc_grouped", float64(out.GroupedAllocs))
		a.add("halloc.forwarded", float64(out.ForwardedAlloc))
		a.frags = append(a.frags, out.FragPct)
	}
	return out, nil
}

// layer is one row of the self-time table: the metric names whose sum is
// the layer's self time.
type layer struct {
	name  string
	parts []string
}

var layers = []layer{
	{"workloads", []string{"workloads.build_s"}},
	{"vm.decode", []string{"vm.predecode_s"}},
	{"vm.dispatch", []string{"vm.self_s"}},
	{"cache", []string{"cache.new_s", "cache.consume_s"}},
	{"alloc", []string{"_alloc_s"}},
	{"halloc", []string{"_halloc_s"}},
	{"profile", []string{"_profile_new_s", "profile.consume_s", "profile.finish_s"}},
	{"hds", []string{"hds.analyze_s"}},
	{"group", []string{"group.form_s"}},
	{"identify", []string{"identify.build_s"}},
	{"rewrite", []string{"rewrite.instrument_s", "rewrite.lower_s"}},
	{"profstore", []string{"profstore.encode_s", "profstore.decode_s", "profstore.merge_s"}},
	{"service", []string{"_service_s"}},
}

// finish derives one pass's ratios, layer self times and unattributed
// share.
func (a *acc) finish() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = a.v[d.name]
	}
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m["vm.steps_per_s"] = div(a.v["vm.steps"], a.v["_vm_run_s"])
	m["vm.tlb_hit_ratio"] = div(a.v["_tlb_hit"], a.v["_tlb_acc"])
	m["cache.ns_per_event"] = div(a.v["cache.consume_s"]*1e9, a.v["cache.events"])
	m["alloc.ns_per_call"] = div(a.v["_alloc_s"]*1e9, a.v["alloc.calls"])
	m["halloc.ns_per_call"] = div(a.v["_halloc_s"]*1e9, a.v["halloc.calls"])
	m["halloc.grouped_ratio"] = div(a.v["_halloc_grouped"], a.v["_halloc_grouped"]+a.v["halloc.forwarded"])
	m["halloc.frag_pct"] = median(a.frags)
	m["profile.ns_per_event"] = div(a.v["profile.consume_s"]*1e9, a.v["profile.events"])
	attributed := 0.0
	for _, l := range layers {
		self := 0.0
		for _, p := range l.parts {
			self += a.v[p]
		}
		m["_self."+l.name] = self
		attributed += self
	}
	m["trace.unattributed_pct"] = div(a.v["_op_wall_s"]-attributed, a.v["_op_wall_s"]) * 100
	m["_op_wall_s"] = a.v["_op_wall_s"]
	return m
}

// traceReport turns the traced passes into per-layer metrics (medians over
// passes) and the self-time table. untracedWall and tracedWall are the
// pass wall times of the untraced and traced runs of the same work.
func traceReport(out *outcome, passes []*acc, untracedWall, tracedWall []float64, measureRuns []float64, gcCycles []float64) {
	per := make([]map[string]float64, len(passes))
	for i, p := range passes {
		per[i] = p.finish()
	}
	med := func(name string) float64 {
		xs := make([]float64, len(per))
		for i, m := range per {
			xs[i] = m[name]
		}
		return median(xs)
	}
	out.metrics = map[string]float64{}
	for _, d := range perLayer {
		out.metrics[d.name] = med(d.name)
	}
	out.metrics["measure.run_s"] = median(measureRuns)
	out.metrics["go.gc_cycles"] = median(gcCycles)
	out.metrics["go.peak_rss_mb"] = peakRSSMB()
	u := median(untracedWall)
	out.metrics["trace.overhead_pct"] = 0
	if u > 0 {
		out.metrics["trace.overhead_pct"] = (median(tracedWall) - u) / u * 100
	}

	wall := med("_op_wall_s")
	out.notes = append(out.notes, fmt.Sprintf("layer self time per pass (median of %d traced passes; operation wall %.4fs):", len(passes), wall))
	for _, l := range layers {
		self := med("_self." + l.name)
		share := 0.0
		if wall > 0 {
			share = self / wall * 100
		}
		out.notes = append(out.notes, fmt.Sprintf("  %-12s %10.4fs %6.1f%%", l.name, self, share))
	}
	out.notes = append(out.notes, fmt.Sprintf("  %-12s %10s  %6.1f%%", "unattributed", "", out.metrics["trace.unattributed_pct"]))
}
