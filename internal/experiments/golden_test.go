package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// Golden values for the 11 paper programs, each running its test-scale
// build. povray and omnetpp were recorded from the seed (pre-batching)
// engine: the per-event Hooks-dispatch VM at commit 7935e99. The other nine
// were recorded at commit 754fc40, before the SEQUITUR digram index and the
// profiler's co-allocatability links were rewritten. The batched event
// engine must reproduce them bit for bit — that is the determinism contract
// of the event stream (vm/event.go): batching changes delivery granularity,
// never content or order.
type goldenWorkload struct {
	name string

	// sha256 of profstore.Encode for core.Profile with RecordTrace=true
	// and the default training seed.
	profileSHA string

	// measure.Run under the jemalloc-like baseline, seed 1000, XeonW2195.
	result        int64
	steps         uint64
	loads, stores uint64
	l1dMisses     uint64
	l1dAccesses   uint64
	cycles        uint64

	// measure.MeasureTrials(trials=4, baseSeed=1000) quartile medians.
	trialCyclesMedian float64
}

var goldens = []goldenWorkload{
	{
		name:              "health",
		profileSHA:        "2a450ef6455581f3fc356125c34ae966c263d94d9aad0bce3e7eb4ccbf254fea",
		result:            34679332954,
		steps:             1823337,
		loads:             409553,
		stores:            215572,
		l1dMisses:         150356,
		l1dAccesses:       625125,
		cycles:            4051247,
		trialCyclesMedian: 4058042.5,
	},
	{
		name:              "ft",
		profileSHA:        "c0dc20d744012b7006e22e9454801ee2b83fa044b327b27731835fcf311364e2",
		result:            1262108,
		steps:             906394,
		loads:             323963,
		stores:            18754,
		l1dMisses:         7445,
		l1dAccesses:       342717,
		cycles:            707417,
		trialCyclesMedian: 718226.5,
	},
	{
		name:              "analyzer",
		profileSHA:        "9592747e7a150b87437b8747215b62306a9a41ce4b2c03103970fbded82b2e28",
		result:            4734384,
		steps:             836425,
		loads:             273009,
		stores:            56469,
		l1dMisses:         66299,
		l1dAccesses:       329478,
		cycles:            1339433,
		trialCyclesMedian: 1332714.5,
	},
	{
		name:              "ammp",
		profileSHA:        "f836c058e6738b9ad2bc6c99027ee0490e1a07b30fcb88cb8e4dc2655be424a7",
		result:            64689076382,
		steps:             375232,
		loads:             142016,
		stores:            34501,
		l1dMisses:         36282,
		l1dAccesses:       176517,
		cycles:            770110,
		trialCyclesMedian: 774712,
	},
	{
		name:              "art",
		profileSHA:        "4134e86cdc6c6262ffe3e199c893fd2153bf39cca219bdf25f0a33fc957ecb7b",
		result:            3134146129,
		steps:             709137,
		loads:             108185,
		stores:            21322,
		l1dMisses:         30421,
		l1dAccesses:       129507,
		cycles:            784081,
		trialCyclesMedian: 784081,
	},
	{
		name:              "equake",
		profileSHA:        "347abe7237b2c9e163e63b29ef5dd820e7a407b7fa4df429a3b12334339dff14",
		result:            -4947737023310993827,
		steps:             1058866,
		loads:             234608,
		stores:            14976,
		l1dMisses:         70272,
		l1dAccesses:       249584,
		cycles:            1577630,
		trialCyclesMedian: 1569052,
	},
	{
		name:              "povray",
		profileSHA:        "1aa6e750d713c99e51c46a33502b639c26ba093d1405669987aeee510ec462a6",
		result:            56986,
		steps:             291272,
		loads:             83333,
		stores:            25031,
		l1dMisses:         22809,
		l1dAccesses:       108364,
		cycles:            475284,
		trialCyclesMedian: 464698,
	},
	{
		name:              "omnetpp",
		profileSHA:        "9ff41b3104a8cedf2aca84bb0cc2f34618dc38ef8e564515a470bc554ba4e2c0",
		result:            4511129,
		steps:             4431092,
		loads:             1513817,
		stores:            545375,
		l1dMisses:         586887,
		l1dAccesses:       2059192,
		cycles:            9287376,
		trialCyclesMedian: 9272469.5,
	},
	{
		name:              "xalanc",
		profileSHA:        "ae1cc8c2cd80d7a3e3b1a62451991329fe6ef20595f987f628a8a206b75d1fcd",
		result:            17786417,
		steps:             662778,
		loads:             197786,
		stores:            37614,
		l1dMisses:         50594,
		l1dAccesses:       235400,
		cycles:            1115896,
		trialCyclesMedian: 1138658.5,
	},
	{
		name:              "leela",
		profileSHA:        "efefcdeef88391918d4060df841f803e7faea65545d3dcded104051035711be0",
		result:            -8018425281617996461,
		steps:             1310575,
		loads:             168804,
		stores:            60614,
		l1dMisses:         2295,
		l1dAccesses:       229418,
		cycles:            874660,
		trialCyclesMedian: 883031,
	},
	{
		name:              "roms",
		profileSHA:        "38e9654d97b2cc8774fc383ae14f402563aa21c285d69fc67cef1e1b766b9b80",
		result:            433526814,
		steps:             6508941,
		loads:             860328,
		stores:            61442,
		l1dMisses:         117158,
		l1dAccesses:       921770,
		cycles:            5014098,
		trialCyclesMedian: 5014096.5,
	},
}

// TestGoldenProfileImages asserts the batched engine reproduces the seed
// engine's profile images byte for byte.
func TestGoldenProfileImages(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			cfg := core.Config{}
			cfg.Profile.RecordTrace = true
			prof, err := core.Profile(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			img, err := profstore.Encode(prof)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != g.profileSHA {
				t.Errorf("profile image sha256 = %s, want seed engine's %s (len %d)",
					got, g.profileSHA, len(img))
			}
		})
	}
}

// TestGoldenRunResults asserts measurement runs match the seed engine's
// RunResults exactly.
func TestGoldenRunResults(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			r, err := measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 1000, cache.XeonW2195())
			if err != nil {
				t.Fatal(err)
			}
			if r.Result != g.result || r.Steps != g.steps || r.Loads != g.loads || r.Stores != g.stores {
				t.Errorf("run = result %d steps %d loads %d stores %d, want %d/%d/%d/%d",
					r.Result, r.Steps, r.Loads, r.Stores, g.result, g.steps, g.loads, g.stores)
			}
			if r.Cache.L1D.Misses != g.l1dMisses || r.Cache.L1D.Accesses != g.l1dAccesses {
				t.Errorf("L1D = %d misses / %d accesses, want %d/%d",
					r.Cache.L1D.Misses, r.Cache.L1D.Accesses, g.l1dMisses, g.l1dAccesses)
			}
			if r.Cycles != g.cycles {
				t.Errorf("cycles = %d, want %d", r.Cycles, g.cycles)
			}
		})
	}
}

// TestGoldenTrialsWorkerInvariance asserts the parallel measurement
// harness reproduces the seed engine's serial trial summary at every
// worker-pool width.
func TestGoldenTrialsWorkerInvariance(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			for _, workers := range []int{1, 2, 4, 8} {
				s, err := measure.MeasureTrialsParallel(p, measure.Policy{Kind: measure.Jemalloc},
					4, 1000, cache.XeonW2195(), workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if s.Cycles.Median != g.trialCyclesMedian {
					t.Errorf("workers=%d: cycles median = %v, want seed engine's %v",
						workers, s.Cycles.Median, g.trialCyclesMedian)
				}
			}
		})
	}
}

// TestGoldenBatchSizeInvariance asserts the determinism contract directly:
// profile images are identical whether events are delivered one at a time
// (BatchSize 1, the per-event seed behaviour) or in full batches.
func TestGoldenBatchSizeInvariance(t *testing.T) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	encodeAt := func(batch int) []byte {
		cfg := core.Config{ProfileBatchSize: batch}
		cfg.Profile.RecordTrace = true
		prof, err := core.Profile(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err := profstore.Encode(prof)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := encodeAt(1)
	for _, batch := range []int{2, 7, 4096} {
		got := encodeAt(batch)
		if string(got) != string(want) {
			t.Errorf("batch=%d: profile image differs from per-event delivery", batch)
		}
	}
}

// TestGoldenBatchSizeFingerprints pins the absolute profile fingerprints at
// batch sizes 1, 64 and 4096 for every golden workload: each must hash to
// the recorded image. This is stronger than pairwise invariance — the
// predecoded threaded dispatcher must reproduce the recorded bytes exactly
// at every delivery granularity.
func TestGoldenBatchSizeFingerprints(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w := workloads.MustGet(g.name)
			p := w.Build(w.TestScale)
			for _, batch := range []int{1, 64, 4096} {
				cfg := core.Config{ProfileBatchSize: batch}
				cfg.Profile.RecordTrace = true
				prof, err := core.Profile(p, cfg)
				if err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				img, err := profstore.Encode(prof)
				if err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				sum := sha256.Sum256(img)
				if got := hex.EncodeToString(sum[:]); got != g.profileSHA {
					t.Errorf("batch=%d: profile image sha256 = %s, want %s", batch, got, g.profileSHA)
				}
			}
		})
	}
}
