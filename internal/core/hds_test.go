package core

import (
	"math"
	"strings"
	"testing"

	"halo/internal/profstore"
	"halo/internal/workloads"
)

// TestAnalyzeHDSRejectsOutOfRangeSerials feeds AnalyzeHDS decoded images
// whose reference trace names an object serial outside the grammar's
// terminal range. Each must be rejected with an error, neither attempting
// a serial-indexed allocation of that size nor panicking in the grammar.
func TestAnalyzeHDSRejectsOutOfRangeSerials(t *testing.T) {
	w := workloads.MustGet("povray")
	p := w.Build(w.TestScale)
	cfg := Config{}
	cfg.Profile.RecordTrace = true
	prof, err := Profile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := prof.Trace[0].Obj
	for _, obj := range []uint64{math.MaxInt32 + 1, 1 << 40, 1 << 63, math.MaxUint64} {
		prof.Trace[0].Obj = obj
		img, err := profstore.Encode(prof)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := profstore.Decode(img)
		if err != nil {
			t.Fatalf("obj %d: decode: %v", obj, err)
		}
		if _, err := AnalyzeHDS(dec, cfg); err == nil || !strings.Contains(err.Error(), "terminal range") {
			t.Errorf("obj %d: AnalyzeHDS error = %v, want a terminal-range error", obj, err)
		}
	}
	// The unmodified trace still analyses.
	prof.Trace[0].Obj = orig
	if _, err := AnalyzeHDS(prof, cfg); err != nil {
		t.Fatalf("in-range trace rejected: %v", err)
	}
}
