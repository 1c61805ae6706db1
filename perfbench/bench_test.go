package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"halo/internal/alloc"
	"halo/internal/measure"
	"halo/internal/service"
)

func runPair() (measure.RunResult, measure.RunResult) {
	jem := measure.RunResult{Result: 42, Steps: 100, Alloc: alloc.Stats{LiveObjects: 3, LiveBytes: 96}}
	halo := jem
	halo.Alloc = alloc.Stats{LiveObjects: 1, LiveBytes: 32}
	halo.GroupStats = alloc.Stats{LiveObjects: 2, LiveBytes: 64}
	return jem, halo
}

// TestCheckPairCountsCorruption shows a HALO run whose result or final heap
// differs from the baseline's is counted as a failed operation.
func TestCheckPairCountsCorruption(t *testing.T) {
	jem, halo := runPair()
	var ok tally
	checkPair(&ok, "same", jem, halo)
	if ok.attempted != 1 || ok.failed != 0 {
		t.Fatalf("matching pair: attempted %d failed %d", ok.attempted, ok.failed)
	}
	corrupt := []func(r *measure.RunResult){
		func(r *measure.RunResult) { r.Result++ },
		func(r *measure.RunResult) { r.GroupStats.LiveObjects++ },
		func(r *measure.RunResult) { r.GroupStats.LiveBytes += 8 },
	}
	for i, c := range corrupt {
		bad := halo
		c(&bad)
		var tl tally
		checkPair(&tl, "corrupt", jem, bad)
		if tl.attempted != 1 || tl.failed != 1 {
			t.Errorf("corruption %d: attempted %d failed %d, want 1 and 1", i, tl.attempted, tl.failed)
		}
	}
}

// TestCheckOptimizeCountsCorruption shows a broken profile round trip and
// a pass that does not reproduce the first one are both failures.
func TestCheckOptimizeCountsCorruption(t *testing.T) {
	first := []*optResult{{roundTrip: true, binary: []byte{1, 2, 3}, rules: 5}}
	same := []*optResult{{roundTrip: true, binary: []byte{1, 2, 3}, rules: 5}}
	var ok tally
	checkOptimize(&ok, same, first)
	if ok.failed != 0 || ok.attempted != 2 {
		t.Fatalf("identical pass: attempted %d failed %d", ok.attempted, ok.failed)
	}
	for name, bad := range map[string]*optResult{
		"round trip": {roundTrip: false, binary: []byte{1, 2, 3}, rules: 5},
		"binary":     {roundTrip: true, binary: []byte{1, 2, 4}, rules: 5},
		"image":      {roundTrip: true, binary: []byte{1, 2, 3}, rules: 5, imageSum: [32]byte{1}},
	} {
		var tl tally
		checkOptimize(&tl, []*optResult{bad}, first)
		if tl.failed != 1 {
			t.Errorf("%s corrupted: %d failures, want 1", name, tl.failed)
		}
	}
}

// TestCheckFetchesCountsCorruption shows a served binary or policy that
// differs from the locally computed artifact is a failure.
func TestCheckFetchesCountsCorruption(t *testing.T) {
	k := optKey{prog: 0, profiles: []string{"p"}, cfg: service.OptimizeConfig{MaxGroups: 3}}
	st := &serveState{want: map[string]artifact{
		k.String(): {binary: []byte("binary"), policy: []byte("policy")},
	}}
	good := []fetched{
		{key: k, sum: sha256.Sum256([]byte("binary"))},
		{key: k, policy: true, sum: sha256.Sum256([]byte("policy"))},
	}
	var ok tally
	if err := st.checkFetches(&ok, good); err != nil {
		t.Fatal(err)
	}
	if ok.attempted != 2 || ok.failed != 0 {
		t.Fatalf("faithful fetches: attempted %d failed %d", ok.attempted, ok.failed)
	}
	bad := []fetched{
		{key: k, sum: sha256.Sum256([]byte("binarY"))},
		{key: k, policy: true, sum: sha256.Sum256([]byte("binary"))},
	}
	var tl tally
	if err := st.checkFetches(&tl, bad); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 2 {
		t.Fatalf("corrupted fetches: %d failures, want 2", tl.failed)
	}
}

// TestRenderReportsFailures shows failures reach the result line and a
// metric the workload forgot is an error, not a silent zero.
func TestRenderReportsFailures(t *testing.T) {
	out := &outcome{metrics: map[string]float64{"a": 1}}
	out.tally.check(true, "")
	out.tally.check(false, "broken")
	res, err := render(out, []metricDef{{"a", "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"correct":false,"attempted":2,"failed":1,"metrics":{"a":{"value":1,"unit":"s"}}}`; string(res) != want {
		t.Errorf("got %s, want %s", res, want)
	}
	if _, err := render(out, []metricDef{{"missing", "s"}}); err == nil {
		t.Error("a missing metric rendered without error")
	}
}

// TestSimulatedMetricsRepeat runs the adversarial workload twice at one
// seed: the simulated metrics must be identical and every check must pass.
func TestSimulatedMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the adversarial workload twice")
	}
	var runs []*outcome
	for i := 0; i < 2; i++ {
		out, err := runAdversarial(5, time.Nanosecond, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.tally.failed != 0 {
			t.Fatalf("run %d: %d of %d checks failed: %v", i, out.tally.failed, out.tally.attempted, out.tally.notes)
		}
		runs = append(runs, out)
	}
	for _, m := range []string{"l1d_miss_ratio", "cycle_speedup", "worst_cycle_speedup", "frag_pct"} {
		if a, b := runs[0].metrics[m], runs[1].metrics[m]; a != b {
			t.Errorf("%s: %v then %v at the same seed", m, a, b)
		}
	}
}

func TestDeriveSeeds(t *testing.T) {
	seen := map[uint64]bool{}
	for _, tag := range []string{"profile", "measure"} {
		for i := 0; i < 4; i++ {
			s := derive(7, tag, i)
			if s == 0 || seen[s] || s != derive(7, tag, i) {
				t.Fatalf("derive(7, %s, %d) = %d is zero, repeated or unstable", tag, i, s)
			}
			seen[s] = true
		}
	}
}

// TestReferenceRunsNoCollection pins what keeps the calibration
// independent of the pipeline: with a large live heap and a collector set
// to run at almost every allocation, timing the reference still runs only
// its own two forced collections, none while the reference runs.
func TestReferenceRunsNoCollection(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	live := make([]*[64]byte, 1<<18)
	for i := range live {
		live[i] = new([64]byte)
	}
	runtime.GC()
	before := markHeap().numGC
	if d := timeReference(); d <= 0 {
		t.Fatalf("reference time %v", d)
	}
	if n := markHeap().numGC - before; n != 2 {
		t.Errorf("timing the reference ran %d collections, want its 2 forced ones", n)
	}
	runtime.KeepAlive(live)
}
