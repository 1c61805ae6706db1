package sequitur_test

import (
	"testing"

	"halo/internal/core"
	"halo/internal/sequitur"
	"halo/internal/workloads"
)

// referenceTrace records a paper program's object-level reference trace at
// its test scale, the input internal/hds feeds the grammar.
func referenceTrace(b *testing.B, name string) []int64 {
	b.Helper()
	w := workloads.MustGet(name)
	cfg := core.Config{}
	cfg.Profile.RecordTrace = true
	prof, err := core.Profile(w.Build(w.TestScale), cfg)
	if err != nil {
		b.Fatal(err)
	}
	trace := make([]int64, len(prof.Trace))
	for i, r := range prof.Trace {
		trace[i] = int64(r.Obj)
	}
	return trace
}

// BenchmarkSequitur builds the grammar over recorded reference traces:
// analyzer's assigns a rule number for almost every terminal and deletes
// nearly all of them again, omnetpp's is the longest of the paper
// programs. Both grow the digram table well past its initial size.
func BenchmarkSequitur(b *testing.B) {
	for _, name := range []string{"analyzer", "omnetpp"} {
		b.Run(name, func(b *testing.B) {
			trace := referenceTrace(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := sequitur.NewGrammar()
				for _, v := range trace {
					g.Append(v)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/terminal")
		})
	}
}
