package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"halo/internal/measure"
)

// Golden fingerprints of the whole simulated memory hierarchy: sha256 over
// every cache.Stats counter (L1D, L2, L3, DTLB, STLB, DRAM), the stall
// cycles and the cycle estimate of one measure.Run (seed 1000, XeonW2195)
// at test scale. Each of the 11 paper programs and the 4 adv-* workloads
// is pinned under the jemalloc-like baseline and under its default HALO
// policy (profiled and synthesised on the test input). Recorded at commit
// caddeab, before the cache model moved to flat tag arrays and a same-line
// fast path: the storage and hot loop may change, the counters may not.
var hierarchyGoldens = map[string]string{
	"health/jemalloc":       "c608bf472063b4a4a5e057fe0c2f21fe88a88ab5d2c84a42593e2fc077388cce",
	"health/halo":           "de7c93ad9dafa444d76d6b1afde2835c71c09143bc5be1f5d5f9d3c8b80cdd2a",
	"ft/jemalloc":           "5a276210fb63b62d894afb64c35917f060d9fc84100e915432dd8b0f54e28424",
	"ft/halo":               "674dcb524a008a9900782315e14363824583e4420671c58f2f8aa81918b9bf38",
	"analyzer/jemalloc":     "313e7e3155b2ddcb3f0e4b7dd83e54193e61be6bea941c80a9a74887a90fe289",
	"analyzer/halo":         "1033410e31dcb07fba78cf156151847bcde644c25458d8e1ba55392362cc227e",
	"ammp/jemalloc":         "20951b738bed594852e61cb41c3a293639b94984df8be43014c6fd2d3871d15d",
	"ammp/halo":             "62f0372b9f299730d547097269ae2467ba839d8e674ec650f83aa4e637148a9d",
	"art/jemalloc":          "5006f86823060552982edf7a9bbae3a0774d58df78536ef5bd3eace657758da3",
	"art/halo":              "b834a5c3869554b98444d51701e8b0ae24f05ee0a80f26c80d0ba61882c4bcf5",
	"equake/jemalloc":       "4d4b1c0ccb3176b7f6eb1baaa2573525357c1e63daafb700a1245ec931991204",
	"equake/halo":           "3fe0608f41fb4523a0568e68b1c840107f952f86630407224eedb5fdc56014ca",
	"povray/jemalloc":       "27586270a23a241d3cadcfe545f11d99f3d8910ce4ca533bd46678e1f3dde0a1",
	"povray/halo":           "ab25cd3d2e75a7f835e057ef93e853ba4ad562aea5b5be01700c2453233b87a9",
	"omnetpp/jemalloc":      "c6781d705bbdeba41e41d50321de932bffd6b78114f449e2bd85a84aec5fe086",
	"omnetpp/halo":          "6bfb1e7f3500589ceaea4dcaef496b1ed87e3c8fe5d01b8ed784fd151075c01b",
	"xalanc/jemalloc":       "f78d34168795d427285314204840e527072f84482b11e9382e337f7fb991114d",
	"xalanc/halo":           "2ea0fdd750057ab57019e28948aa93a600d5042500b9e49799cecdba0e36789b",
	"leela/jemalloc":        "e2ebb402147321e9f064e78326d8470ba8bd90bafec6d7db6431245e40a89788",
	"leela/halo":            "ce5d877198d466db30df0f230ce5cf06f6b880f867be7da82c74a6c8342609fb",
	"roms/jemalloc":         "7ebb935d8cbea15b861661289356771f6b8b9019f8006080d407d53274d32e9e",
	"roms/halo":             "8013b4b1b7cbfbc5b59635d07e28ea36b2774a23441f2b92b0035bb5910e6614",
	"adv-frag/jemalloc":     "fe8767c76e61ac7fc2e1173502827d3987f9142004183dcd68350dc620ae77e9",
	"adv-frag/halo":         "b8f5514c7ff64c2506329371c0bfc1f2e533e9adf42a6d11d30c325f56d27be8",
	"adv-adjacent/jemalloc": "9fd06c3d94d762082d2de30069a97ce084ea213b73934a7c866237df33cc091a",
	"adv-adjacent/halo":     "5cd51e217b17f6a1cd66d18eb0373f3d0d3140947e088f83663b7c860ec9cc1e",
	"adv-phase/jemalloc":    "8312d8bfa6fd043ab755ea02a2c59e4587c14afaff95ae3e38e6522d201bac4f",
	"adv-phase/halo":        "9bfc8c0a2bb0869b2b25e17b1900936c30a7c8800c26a426ee20385d634dfece",
	"adv-regress/jemalloc":  "0adbc9b2a393fac0ccf97f2146399a2423c9b37909edb38f1b916323088244f7",
	"adv-regress/halo":      "e379a661657ee673a3055345c287138cfbe92b286fb11fc22b6db066986d83c3",
}

// hierarchyFingerprint renders one run's full memory-hierarchy state.
func hierarchyFingerprint(e *Engine, r measure.RunResult) string {
	stall := r.Cycles - uint64(float64(r.Steps)*e.machine.BaseCPI)
	s := fmt.Sprintf("%+v stall=%d cycles=%d", r.Cache, stall, r.Cycles)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGoldenHierarchy pins the full-hierarchy fingerprint of every paper
// program and hostile workload under both allocator policies.
func TestGoldenHierarchy(t *testing.T) {
	e := quickEngine()
	list := append(e.workloadList(), e.adversarialList()...)
	for _, w := range list {
		t.Run(w.Name, func(t *testing.T) {
			a, err := e.artefactsFor(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range []measure.Policy{a.polBase, a.polHALO} {
				r, err := measure.Run(a.refProg, pol, 1000, e.machine)
				if err != nil {
					t.Fatal(err)
				}
				key := w.Name + "/" + pol.Kind.String()
				got := hierarchyFingerprint(e, r)
				if want := hierarchyGoldens[key]; got != want {
					t.Errorf("%s: hierarchy sha256 = %s, want %s (%+v)", key, got, want, r.Cache)
				}
			}
		})
	}
	if n := len(list) * 2; len(hierarchyGoldens) != n {
		t.Errorf("%d hierarchy goldens recorded, want %d", len(hierarchyGoldens), n)
	}
}
