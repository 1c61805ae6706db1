package main

import (
	"fmt"
	"runtime"
	"time"

	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/rewrite"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// advSeeds is the number of measurement seeds each journey runs.
const advSeeds = 2

// journey is one adversarial operation's results: [seed][policy].
type journey struct {
	runs               [advSeeds][2]measure.RunResult
	optimize, evaluate time.Duration
}

// advJourney is one operation of the adversarial workload: build, profile,
// synthesise, rewrite the ref build, predecode the fresh binaries, then
// measure under jemalloc and HALO. Untraced with a == nil, else composed
// from the layers' pieces and timed.
func advJourney(a *acc, w workloads.Workload, profileSeed uint64, mseeds [advSeeds]uint64) (*journey, error) {
	cfg := pipelineConfig(w, profileSeed, false)
	cpu := opStart()
	start := time.Now()
	test := w.Build(w.TestScale)
	var opt *core.Optimized
	var err error
	if a == nil {
		opt, err = core.Optimize(test, cfg)
	} else {
		a.since("workloads.build_s", start)
		prof, perr := tracedProfile(a, test, cfg)
		if perr != nil {
			return nil, perr
		}
		opt, err = tracedSynthesis(a, test, prof, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	t := time.Now()
	ref := w.Build(w.RefScale)
	if a != nil {
		a.since("workloads.build_s", t)
	}
	t = time.Now()
	rw, err := rewrite.Instrument(ref, opt.Selectors.Sites)
	if err != nil {
		return nil, fmt.Errorf("%s: ref rewrite: %w", w.Name, err)
	}
	if a != nil {
		a.since("rewrite.instrument_s", t)
		t = time.Now()
	}
	sels, dropped := lower(opt, rw)
	halo := haloPolicy(w, rw, sels)
	if a != nil {
		a.since("rewrite.lower_s", t)
		a.add("rewrite.dropped_conjs", float64(dropped))
	}
	j := &journey{optimize: cpuSince(cpu)}

	evalStart := cpuClock()
	if a == nil {
		vm.Predecode(ref)
		vm.Predecode(rw.Prog)
	} else {
		tracedPredecode(a, ref)
		tracedPredecode(a, rw.Prog)
	}
	for s, mseed := range mseeds {
		for p, pol := range []measure.Policy{jemalloc, halo} {
			var r measure.RunResult
			if a == nil {
				r, err = measure.Run(ref, pol, mseed, machine)
			} else {
				r, err = tracedMeasure(a, ref, pol, mseed)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			j.runs[s][p] = r
		}
		if a != nil {
			a.add("rewrite.added_steps", float64(j.runs[s][1].Steps)-float64(j.runs[s][0].Steps))
		}
	}
	j.evaluate = cpuSince(evalStart)
	if a != nil {
		a.add("_op_wall_s", time.Since(start).Seconds())
	}
	return j, nil
}

// advPass runs the journey over the four adversarial programs.
func advPass(a *acc, seed uint64, opsMs *[]float64) ([]*journey, error) {
	var mseeds [advSeeds]uint64
	for s := range mseeds {
		mseeds[s] = derive(seed, "measure", s)
	}
	out := make([]*journey, len(advPrograms))
	for i, name := range advPrograms {
		j, err := advJourney(a, workloads.MustGet(name), derive(seed, "profile", i), mseeds)
		if err != nil {
			return nil, err
		}
		if opsMs != nil {
			*opsMs = append(*opsMs, ms(j.optimize+j.evaluate))
		}
		out[i] = j
	}
	return out, nil
}

// checkAdv checks every run pair and, when first is given, that the pass
// reproduced the first pass's counters exactly.
func checkAdv(t *tally, got, first []*journey) {
	for i, j := range got {
		for s := range j.runs {
			checkPair(t, advPrograms[i], j.runs[s][0], j.runs[s][1])
			if first != nil {
				f := first[i].runs[s]
				t.check(sameCounters(j.runs[s][0], f[0]) && sameCounters(j.runs[s][1], f[1]),
					"%s: counters differ from the first pass at the same seed", advPrograms[i])
			}
		}
	}
}

func runAdversarial(seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	// Set-up: a warm-up pass at another seed.
	setup, err := setupReps(3, func(speed) error {
		_, err := advPass(nil, derive(seed, "warmup", 0), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if trace {
		return traceAdversarial(out, seed, budget)
	}
	out.metrics["setup_s"] = setup

	var first []*journey
	var optS, evalS, allocMB []float64
	var opsMs opTimes
	busy := 0.0
	err = timedPasses(budget, 1, func(k int) error {
		sp := calibrate()
		mark := markHeap()
		var ops []float64
		res, err := advPass(nil, seed, &ops)
		if err != nil {
			return err
		}
		busy += sum(ops) / 1000 * float64(sp)
		opsMs.add(sp.scaled(ops))
		allocMB = append(allocMB, mark.allocMB())
		var o, e time.Duration
		for _, j := range res {
			o += j.optimize
			e += j.evaluate
		}
		optS = append(optS, sp.seconds(o))
		evalS = append(evalS, sp.seconds(e))
		checkAdv(&out.tally, res, first)
		if first == nil {
			first = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["optimize_s"] = median(optS)
	out.metrics["evaluate_s"] = median(evalS)
	out.metrics["alloc_mb"] = median(allocMB)
	latencies(out.metrics, opsMs, busy)
	out.samples = opsMs.count()
	sim := newSimAgg()
	for i, j := range first {
		for s := range j.runs {
			sim.add(advPrograms[i], j.runs[s][0], j.runs[s][1])
		}
	}
	sim.fill(out.metrics)
	return out, nil
}

// traceAdversarial alternates untraced and traced passes and checks the
// composed journeys reproduce the untraced counters exactly.
func traceAdversarial(out *outcome, seed uint64, budget time.Duration) (*outcome, error) {
	var passes []*acc
	var untracedS, tracedS, gc []float64
	err := timedPasses(budget, 1, func(k int) error {
		start := time.Now()
		want, err := advPass(nil, seed, nil)
		if err != nil {
			return err
		}
		untracedS = append(untracedS, time.Since(start).Seconds())
		checkAdv(&out.tally, want, nil)

		a := newAcc()
		runtime.GC()
		gcBefore := markHeap().numGC
		start = time.Now()
		got, err := advPass(a, seed, nil)
		if err != nil {
			return err
		}
		tracedS = append(tracedS, time.Since(start).Seconds())
		gc = append(gc, float64(markHeap().numGC-gcBefore))
		passes = append(passes, a)
		for i, j := range got {
			for s := range j.runs {
				for p := range j.runs[s] {
					out.tally.check(sameCounters(j.runs[s][p], want[i].runs[s][p]),
						"%s: traced journey counters differ from the untraced one", advPrograms[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	traceReport(out, passes, untracedS, tracedS, nil, gc)
	return out, nil
}
