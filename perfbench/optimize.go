package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"halo/internal/core"
	"halo/internal/hds"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// optResult is what one optimize operation produced for one program. It
// keeps no profile, so passes do not hold each other's heap.
type optResult struct {
	w         workloads.Workload
	input     *isa.Program   // the test binary
	halo      measure.Policy // its rewritten binary and selectors
	imageSum  [32]byte       // profile image
	binary    []byte         // rewritten test binary
	rules     int            // HDS grammar rules
	roundTrip bool           // Encode→Decode→Encode was byte-identical
}

// optimizeOne is one operation of the optimize workload: Build, Profile
// with the reference trace on, OptimizeFromProfile, AnalyzeHDS, then the
// profile image's Encode→Decode→Encode round trip. With a non-nil a it
// composes the same pipeline from the layers' pieces, timed.
func optimizeOne(a *acc, w workloads.Workload, profileSeed uint64) (*optResult, error) {
	cfg := pipelineConfig(w, profileSeed, true)
	start := time.Now()
	p := w.Build(w.TestScale)
	var (
		opt *core.Optimized
		hr  *hds.Result
		err error
	)
	if a == nil {
		prof, err := core.Profile(p, cfg)
		if err != nil {
			return nil, err
		}
		if opt, err = core.OptimizeFromProfile(p, prof, cfg); err != nil {
			return nil, err
		}
		if hr, err = core.AnalyzeHDS(prof, cfg); err != nil {
			return nil, err
		}
	} else {
		a.since("workloads.build_s", start)
		prof, err := tracedProfile(a, p, cfg)
		if err != nil {
			return nil, err
		}
		if opt, err = tracedSynthesis(a, p, prof, cfg); err != nil {
			return nil, err
		}
		hr = tracedHDS(a, prof, cfg)
	}
	res := &optResult{w: w, input: p, rules: hr.Rules, halo: measure.Policy{
		Kind:      measure.HALO,
		Rewritten: opt.Rewrite.Prog,
		Selectors: opt.BitSelectors,
		NumBits:   opt.Rewrite.NumBits,
		Halloc:    hallocConfig(w),
	}}
	t := time.Now()
	img, err := profstore.Encode(opt.Profile)
	if err != nil {
		return nil, fmt.Errorf("%s: encoding profile: %w", w.Name, err)
	}
	encode := time.Since(t)
	t = time.Now()
	dec, err := profstore.Decode(img)
	if err != nil {
		return nil, fmt.Errorf("%s: decoding profile: %w", w.Name, err)
	}
	decode := time.Since(t)
	t = time.Now()
	img2, err := profstore.Encode(dec)
	if err != nil {
		return nil, fmt.Errorf("%s: re-encoding profile: %w", w.Name, err)
	}
	encode += time.Since(t)
	res.roundTrip = bytes.Equal(img, img2)
	res.imageSum = sha256.Sum256(img)
	if res.binary, err = opt.Rewrite.Prog.Encode(); err != nil {
		return nil, fmt.Errorf("%s: encoding rewritten binary: %w", w.Name, err)
	}
	if a != nil {
		a.add("profstore.encode_s", encode.Seconds())
		a.add("profstore.decode_s", decode.Seconds())
		a.add("profstore.image_bytes", float64(len(img)))
		a.add("_op_wall_s", time.Since(start).Seconds())
	}
	return res, nil
}

// optimizePass runs the operation over the eleven paper programs.
func optimizePass(a *acc, seed uint64, opsMs *[]float64) ([]*optResult, error) {
	out := make([]*optResult, len(paperPrograms))
	for i, name := range paperPrograms {
		start := opStart()
		r, err := optimizeOne(a, workloads.MustGet(name), derive(seed, "profile", i))
		if err != nil {
			return nil, err
		}
		if opsMs != nil {
			*opsMs = append(*opsMs, ms(cpuSince(start)))
		}
		out[i] = r
	}
	return out, nil
}

// checkOptimize checks a pass's outputs: the profile round trip, and that
// every pass reproduces the first one byte for byte.
func checkOptimize(t *tally, got, first []*optResult) {
	for i, r := range got {
		t.check(r.roundTrip, "%s: profile Encode→Decode→Encode is not byte-identical", r.w.Name)
		if first != nil {
			f := first[i]
			t.check(r.imageSum == f.imageSum && bytes.Equal(r.binary, f.binary) && r.rules == f.rules,
				"%s: output differs from the first pass at the same seed", r.w.Name)
		}
	}
}

// verifyOptimize runs each original test binary under jemalloc and its
// rewritten one under HALO: the rewritten binary must return the
// original's result with the same live objects. The runs also give the
// simulated metrics of the eleven policies at test scale.
func verifyOptimize(t *tally, res []*optResult, mseed uint64, sim *simAgg) error {
	for _, r := range res {
		jem, err := measure.Run(r.input, jemalloc, mseed, machine)
		if err != nil {
			return err
		}
		halo, err := measure.Run(r.input, r.halo, mseed, machine)
		if err != nil {
			return err
		}
		// Live bytes are not compared here: on programs whose request
		// sizes are not size classes, the size-segregated allocator counts
		// rounded bytes and the group allocator requested ones.
		t.check(jem.Result == halo.Result && jem.TotalLiveObjects() == halo.TotalLiveObjects(),
			"%s: rewritten binary (result %d, %d live objects) differs from the original (%d, %d)",
			r.w.Name, halo.Result, halo.TotalLiveObjects(), jem.Result, jem.TotalLiveObjects())
		sim.add(r.w.Name, jem, halo)
	}
	return nil
}

// verifySeeds is how many measurement seeds optimize's verification step
// runs; evaluate_s there is the median over them.
const verifySeeds = 5

func runOptimize(seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	// Set-up: one warm-up pipeline over art and povray, so the timed
	// section starts with code and heap warm.
	setup, err := setupReps(5, func(speed) error {
		for i, name := range []string{"art", "povray"} {
			if _, err := optimizeOne(nil, workloads.MustGet(name), derive(seed, "warmup", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if trace {
		return traceOptimize(out, seed, budget)
	}
	out.metrics["setup_s"] = setup

	var first []*optResult
	var passS, allocMB []float64
	var opsMs opTimes
	busy := 0.0
	err = timedPasses(budget, 1, func(k int) error {
		sp := calibrate()
		mark := markHeap()
		var ops []float64
		res, err := optimizePass(nil, seed, &ops)
		if err != nil {
			return err
		}
		d := sum(ops) / 1000 * float64(sp)
		busy += d
		passS = append(passS, d)
		opsMs.add(sp.scaled(ops))
		allocMB = append(allocMB, mark.allocMB())
		checkOptimize(&out.tally, res, first)
		if first == nil {
			first = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["optimize_s"] = median(passS)
	out.metrics["alloc_mb"] = median(allocMB)
	latencies(out.metrics, opsMs, busy)
	out.samples = opsMs.count()

	sim := newSimAgg()
	var verifyS []float64
	for s := 0; s < verifySeeds; s++ {
		sp := calibrate()
		start := opStart()
		if err := verifyOptimize(&out.tally, first, derive(seed, "measure", s), sim); err != nil {
			return nil, err
		}
		verifyS = append(verifyS, sp.seconds(cpuSince(start)))
	}
	out.metrics["evaluate_s"] = median(verifyS)
	sim.fill(out.metrics)
	return out, nil
}

// traceOptimize alternates untraced and traced passes, checks that the
// composed pipeline reproduces the untraced outputs exactly (profile image
// sha256, rewritten binary, HDS rules), and reports the per-layer metrics.
func traceOptimize(out *outcome, seed uint64, budget time.Duration) (*outcome, error) {
	var passes []*acc
	var untracedS, tracedS, gc []float64
	err := timedPasses(budget, 1, func(k int) error {
		start := time.Now()
		want, err := optimizePass(nil, seed, nil)
		if err != nil {
			return err
		}
		untracedS = append(untracedS, time.Since(start).Seconds())
		checkOptimize(&out.tally, want, nil)

		a := newAcc()
		runtime.GC()
		gcBefore := markHeap().numGC
		start = time.Now()
		got, err := optimizePass(a, seed, nil)
		if err != nil {
			return err
		}
		tracedS = append(tracedS, time.Since(start).Seconds())
		gc = append(gc, float64(markHeap().numGC-gcBefore))
		passes = append(passes, a)
		for i, r := range got {
			w := want[i]
			out.tally.check(r.imageSum == w.imageSum && bytes.Equal(r.binary, w.binary) && r.rules == w.rules,
				"%s: traced pipeline output differs from the untraced one", r.w.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	traceReport(out, passes, untracedS, tracedS, nil, gc)
	return out, nil
}
