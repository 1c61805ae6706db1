package main

import (
	"fmt"
	"runtime"
	"time"

	"halo/internal/core"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// evalTarget is one program prepared for measurement: the ref-scale
// binary and its HALO policy.
type evalTarget struct {
	w    workloads.Workload
	ref  *isa.Program
	halo measure.Policy
}

// evalTrialSeeds is the fixed set of measurement seeds the simulated
// metrics are taken over; pass k measures with seed k mod evalTrialSeeds,
// so every pass after the first evalTrialSeeds repeats an earlier one
// and must reproduce it exactly.
const evalTrialSeeds = 2

// prepareEval profiles each program on its test input, synthesises the
// policy, rewrites the ref-scale build and predecodes both binaries. It
// returns the targets and the wall time of profile → synthesis → rewrite.
func prepareEval(seed uint64) ([]evalTarget, time.Duration, error) {
	targets := make([]evalTarget, len(evalPrograms))
	var optimize time.Duration
	for i, name := range evalPrograms {
		w := workloads.MustGet(name)
		test := w.Build(w.TestScale)
		ref := w.Build(w.RefScale)
		start := cpuClock()
		cfg := pipelineConfig(w, derive(seed, "profile", i), false)
		opt, err := core.Optimize(test, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		pol, err := refPolicy(w, ref, opt)
		if err != nil {
			return nil, 0, err
		}
		optimize += cpuSince(start)
		vm.Predecode(ref)
		vm.Predecode(pol.Rewritten)
		targets[i] = evalTarget{w: w, ref: ref, halo: pol}
	}
	return targets, optimize, nil
}

// evalCost is what an untraced pass measured: each run's calibrated CPU
// time (a pass lasts seconds, so each run is calibrated on its own) and
// the Go heap the runs allocated.
type evalCost struct {
	opsMs   []float64
	allocMB float64
	wallS   float64 // the runs' wall time, calibration excluded
}

// evalPass measures every target under jemalloc and HALO at one seed,
// untraced (a == nil) through measure.Run or traced through the composed
// pipeline. A non-nil cost receives the untraced pass's cost.
func evalPass(a *acc, targets []evalTarget, mseed uint64, cost *evalCost) ([][2]measure.RunResult, error) {
	out := make([][2]measure.RunResult, len(targets))
	for i, tg := range targets {
		for j, pol := range []measure.Policy{jemalloc, tg.halo} {
			sp := speed(1)
			if cost != nil {
				sp = calibrate()
			}
			mark := markHeap()
			cpu := opStart()
			start := time.Now()
			var r measure.RunResult
			var err error
			if a == nil {
				r, err = measure.Run(tg.ref, pol, mseed, machine)
			} else {
				r, err = tracedMeasure(a, tg.ref, pol, mseed)
				a.add("_op_wall_s", time.Since(start).Seconds())
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tg.w.Name, err)
			}
			if cost != nil {
				cost.opsMs = append(cost.opsMs, sp.seconds(cpuSince(cpu))*1000)
				cost.allocMB += mark.allocMB()
				cost.wallS += time.Since(start).Seconds()
			}
			out[i][j] = r
		}
		if a != nil {
			a.add("rewrite.added_steps", float64(out[i][1].Steps)-float64(out[i][0].Steps))
		}
	}
	return out, nil
}

func runEvaluate(seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var targets []evalTarget
	var optimizeS []float64
	reps := 5
	if trace {
		reps = 1
	}
	setup, err := setupReps(reps, func(sp speed) error {
		t, d, err := prepareEval(seed)
		targets = t
		optimizeS = append(optimizeS, sp.seconds(d))
		return err
	})
	if err != nil {
		return nil, err
	}
	mseed := func(k int) uint64 { return derive(seed, "measure", k%evalTrialSeeds) }
	if trace {
		return traceEvaluate(out, targets, mseed, budget)
	}
	out.metrics["setup_s"] = setup
	out.metrics["optimize_s"] = median(optimizeS)

	sim := newSimAgg()
	var passS, allocMB []float64
	var opsMs opTimes
	var firsts [][][2]measure.RunResult
	busy := 0.0
	err = timedPasses(budget, evalTrialSeeds, func(k int) error {
		var cost evalCost
		res, err := evalPass(nil, targets, mseed(k), &cost)
		if err != nil {
			return err
		}
		d := sum(cost.opsMs) / 1000
		busy += d
		passS = append(passS, d)
		opsMs.add(cost.opsMs)
		allocMB = append(allocMB, cost.allocMB)
		for i, tg := range targets {
			checkPair(&out.tally, tg.w.Name, res[i][0], res[i][1])
			if k < evalTrialSeeds {
				sim.add(tg.w.Name, res[i][0], res[i][1])
				continue
			}
			prev := firsts[k%evalTrialSeeds][i]
			out.tally.check(sameCounters(res[i][0], prev[0]) && sameCounters(res[i][1], prev[1]),
				"%s: a repeated measurement seed gave different counters", tg.w.Name)
		}
		if k < evalTrialSeeds {
			firsts = append(firsts, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["evaluate_s"] = median(passS)
	out.metrics["alloc_mb"] = median(allocMB)
	latencies(out.metrics, opsMs, busy)
	out.samples = opsMs.count()
	sim.fill(out.metrics)
	return out, nil
}

// traceEvaluate alternates untraced and traced passes at the same seed and
// checks the composed runs reproduce measure.Run's counters exactly.
func traceEvaluate(out *outcome, targets []evalTarget, mseed func(int) uint64, budget time.Duration) (*outcome, error) {
	var passes []*acc
	var untracedS, tracedS, runS, gc []float64
	err := timedPasses(budget, 1, func(k int) error {
		var cost evalCost
		want, err := evalPass(nil, targets, mseed(k), &cost)
		if err != nil {
			return err
		}
		untracedS = append(untracedS, cost.wallS)
		runS = append(runS, cost.opsMs...)

		a := newAcc()
		runtime.GC()
		gcBefore := markHeap().numGC
		got, err := evalPass(a, targets, mseed(k), nil)
		if err != nil {
			return err
		}
		tracedS = append(tracedS, a.v["_op_wall_s"])
		gc = append(gc, float64(markHeap().numGC-gcBefore))
		passes = append(passes, a)
		for i, tg := range targets {
			checkPair(&out.tally, tg.w.Name, want[i][0], want[i][1])
			for j := range got[i] {
				out.tally.check(sameCounters(got[i][j], want[i][j]),
					"%s: traced run counters differ from measure.Run", tg.w.Name)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range runS {
		runS[i] /= 1000 // ms → s
	}
	traceReport(out, passes, untracedS, tracedS, runS, gc)
	return out, nil
}
