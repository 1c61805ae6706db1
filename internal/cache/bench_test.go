package cache_test

import (
	"testing"

	"halo/internal/alloc"
	"halo/internal/cache"
	"halo/internal/mem"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// recorder keeps a copy of every event the VM emits.
type recorder struct{ evs []vm.Event }

func (r *recorder) ConsumeEvents(batch []vm.Event) { r.evs = append(r.evs, batch...) }

// eventStream records a paper program's test-scale event stream under the
// jemalloc-like allocator at measurement seed 1000, as measure.Run sees it.
func eventStream(b *testing.B, name string) []vm.Event {
	b.Helper()
	w := workloads.MustGet(name)
	memory := mem.NewMemory()
	rec := &recorder{}
	v := vm.New(w.Build(w.TestScale), memory, alloc.NewSizeSeg(mem.NewOS(memory)), rec, vm.Config{Seed: 1000})
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	return rec.evs
}

// BenchmarkConsumeEvents replays recorded event streams into a fresh
// XeonW2195 hierarchy in vm.DefaultBatchSize batches, the cache model's
// share of every measure.Run. Construction is outside the timed region
// (BenchmarkNew covers it).
func BenchmarkConsumeEvents(b *testing.B) {
	for _, name := range []string{"povray", "omnetpp"} {
		b.Run(name, func(b *testing.B) {
			evs := eventStream(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := cache.New(cache.XeonW2195())
				b.StartTimer()
				for rest := evs; len(rest) > 0; {
					n := min(vm.DefaultBatchSize, len(rest))
					h.ConsumeEvents(rest[:n])
					rest = rest[n:]
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// BenchmarkNew builds the evaluation machine's hierarchy, which every
// measure.Run pays for once.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		cache.New(cache.XeonW2195())
	}
}
