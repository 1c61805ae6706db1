package halloc_test

import (
	"testing"

	"halo/internal/alloc"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/mem"
)

// BenchmarkMallocFree measures one malloc plus one free in steady state:
// a ring of 256 live objects of mixed small sizes, each operation freeing
// the oldest and allocating its replacement. The group allocator runs
// with a site classifier that groups half the call sites into four groups
// and forwards the rest to its size-segregated fallback, so both of its
// paths are timed.
func BenchmarkMallocFree(b *testing.B) {
	sizes := [...]uint64{16, 24, 48, 64, 96, 200, 32, 8}
	groups := map[isa.Addr]int{0: 0, 2: 1, 4: 2, 6: 3}
	for _, bc := range []struct {
		name string
		make func(*mem.OS) alloc.Allocator
	}{
		{"sizeseg", func(os *mem.OS) alloc.Allocator { return alloc.NewSizeSeg(os) }},
		{"groupalloc", func(os *mem.OS) alloc.Allocator {
			return halloc.New(os, alloc.NewSizeSeg(os), halloc.NewSiteClassifier(groups), halloc.Config{})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := bc.make(mem.NewOS(mem.NewMemory()))
			ga, _ := a.(*halloc.GroupAlloc)
			var live [256]uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				slot := i % len(live)
				if live[slot] != 0 {
					a.Free(live[slot])
				}
				if ga != nil {
					ga.SetAllocSite(isa.Addr(i % 8))
				}
				live[slot] = a.Malloc(sizes[i%len(sizes)])
			}
		})
	}
}
