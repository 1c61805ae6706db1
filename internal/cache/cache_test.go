package cache

import (
	"testing"

	"halo/internal/vm"
)

// access runs one load or store through the hierarchy as a one-event batch.
func access(h *Hierarchy, addr uint64, size uint8) {
	h.ConsumeEvents([]vm.Event{{Kind: vm.EvAccess, Addr: addr, Size: size}})
}

func smallConfig() Config {
	return Config{
		L1:         LevelConfig{Name: "L1D", Size: 1 << 10, Ways: 2, Latency: 0}, // 8 sets
		L2:         LevelConfig{Name: "L2", Size: 8 << 10, Ways: 4, Latency: 10},
		L3:         LevelConfig{Name: "L3", Size: 64 << 10, Ways: 8, Latency: 30},
		TLB:        TLBConfig{Entries: 4, Ways: 2, PageBits: 12, Penalty: 9},
		STLB:       TLBConfig{Entries: 16, Ways: 4, PageBits: 12, Penalty: 70},
		MemLatency: 100,
		BaseCPI:    0.5,
		ClockGHz:   1,
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(smallConfig())
	access(h, 0x1000, 8)
	s := h.Stats()
	if s.L1D.Misses != 1 || s.L1D.Hits != 0 {
		t.Fatalf("cold access: %+v", s.L1D)
	}
	access(h, 0x1000, 8)
	s = h.Stats()
	if s.L1D.Hits != 1 {
		t.Fatalf("warm access missed: %+v", s.L1D)
	}
}

func TestSameLineSharing(t *testing.T) {
	h := New(smallConfig())
	access(h, 0x1000, 8)
	access(h, 0x1008, 8) // same 64-byte line
	s := h.Stats()
	if s.L1D.Misses != 1 || s.L1D.Hits != 1 {
		t.Fatalf("line sharing broken: %+v", s.L1D)
	}
}

func TestLineStraddle(t *testing.T) {
	h := New(smallConfig())
	access(h, 0x103C, 8) // crosses the 0x1040 line boundary
	s := h.Stats()
	if s.L1D.Accesses != 2 {
		t.Fatalf("straddling access touched %d lines, want 2", s.L1D.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = false
	h := New(cfg)
	// L1: 8 sets x 2 ways. Three lines in the same set evict the LRU.
	setStride := uint64(8 * 64)
	a, b, c := uint64(0), setStride, 2*setStride
	access(h, a, 8)
	access(h, b, 8)
	access(h, c, 8) // evicts a
	access(h, b, 8) // hit
	access(h, a, 8) // miss again
	s := h.Stats()
	if s.L1D.Misses != 4 || s.L1D.Hits != 1 {
		t.Fatalf("LRU behaviour: %+v", s.L1D)
	}
}

func TestMissPathReachesMemory(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = false
	h := New(cfg)
	access(h, 0x5000, 8)
	s := h.Stats()
	if s.L2.Misses != 1 || s.L3.Misses != 1 || s.Mem != 1 {
		t.Fatalf("miss path: %+v", s)
	}
	// A second access hits in L1; lower levels see no traffic.
	access(h, 0x5000, 8)
	s2 := h.Stats()
	if s2.L2.Accesses != s.L2.Accesses {
		t.Fatal("L1 hit leaked to L2")
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = false
	h := New(cfg)
	// Fill one L1 set with 3 lines; the first goes to L2-only residence.
	setStride := uint64(8 * 64)
	for i := uint64(0); i < 3; i++ {
		access(h, i*setStride, 8)
	}
	before := h.Stats().L2.Hits
	access(h, 0, 8) // L1 miss, L2 hit
	if h.Stats().L2.Hits != before+1 {
		t.Fatalf("expected L2 hit: %+v", h.Stats())
	}
}

func TestPrefetchNextLine(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = true
	h := New(cfg)
	access(h, 0x8000, 8) // miss; prefetches 0x8040 into L2
	access(h, 0x8040, 8) // L1 miss but L2 hit thanks to prefetch
	s := h.Stats()
	if s.L2.Hits == 0 {
		t.Fatalf("prefetch ineffective: %+v", s)
	}
	if s.Mem != 1 {
		t.Fatalf("memory accesses = %d, want 1 (prefetch is free)", s.Mem)
	}
}

func TestTLBTwoLevels(t *testing.T) {
	h := New(smallConfig())
	// Touch 5 pages: DTLB (4 entries) overflows, STLB (16) holds all.
	for p := uint64(0); p < 5; p++ {
		access(h, p*4096, 8)
	}
	base := h.StallCycles()
	// Revisit page 0: the DTLB misses but the STLB holds the entry, so
	// no full page walk (70 cycles) is charged.
	access(h, 0, 8)
	delta := h.StallCycles() - base
	if delta >= 70 {
		t.Fatalf("page walk charged (%d cycles) despite STLB residency", delta)
	}
	s := h.Stats()
	if s.TLB.Misses == 0 {
		t.Fatal("no DTLB misses recorded")
	}
	if s.STLB.Misses != 5 {
		t.Fatalf("STLB cold misses = %d, want 5", s.STLB.Misses)
	}
	if s.STLB.Hits == 0 {
		t.Fatal("revisit did not hit the STLB")
	}
}

func TestCycleModelMonotone(t *testing.T) {
	h := New(smallConfig())
	c0 := h.Cycles(1000)
	access(h, 0x9000, 8) // adds stall cycles
	c1 := h.Cycles(1000)
	if c1 <= c0 {
		t.Fatalf("stalls did not increase cycles: %d -> %d", c0, c1)
	}
	if h.Seconds(1000) <= 0 {
		t.Fatal("seconds not positive")
	}
}

// TestXeonW2195Geometry pins the simulated geometry of each level. Set
// counts round down to a power of two, so the 25,344 KiB 11-way L3 (36,864
// sets) is simulated with 32,768 sets: 22,528 KiB.
func TestXeonW2195Geometry(t *testing.T) {
	cfg := XeonW2195()
	h := New(cfg)
	for _, c := range []struct {
		name       string
		lru        lru
		sets, ways int
		unit       int // bytes per way: a line, or one TLB entry
		capacity   int
	}{
		{"L1D", h.l1, 64, 8, LineSize, 32 << 10},
		{"L2", h.l2, 1024, 16, LineSize, 1024 << 10},
		{"L3", h.l3, 32768, 11, LineSize, 22528 << 10},
		{"DTLB", h.tlb, 16, 4, 1, 64},
		{"STLB", h.stlb, 128, 12, 1, 1536},
	} {
		sets := int(c.lru.mask) + 1
		if sets != c.sets || c.lru.ways != c.ways || len(c.lru.tags) != sets*c.ways {
			t.Errorf("%s: %d sets x %d ways (%d tags), want %d x %d",
				c.name, sets, c.lru.ways, len(c.lru.tags), c.sets, c.ways)
		}
		if got := len(c.lru.tags) * c.unit; got != c.capacity {
			t.Errorf("%s: effective capacity %d, want %d", c.name, got, c.capacity)
		}
	}
	if cfg.L3.Size != 25344<<10 {
		t.Fatalf("L3 configured size = %d, want the W-2195's 25,344 KiB", cfg.L3.Size)
	}
}

func TestStatsString(t *testing.T) {
	h := New(smallConfig())
	access(h, 0, 8)
	if s := h.Stats().String(); len(s) == 0 {
		t.Fatal("empty stats string")
	}
}

func TestBatchedConsumeMatchesPerAccess(t *testing.T) {
	// Random hot lines, line and page straddles and non-access records:
	// ConsumeEvents, at every batch size, must land on exactly the
	// counters of the reference hierarchy's one-access-at-a-time walk.
	rng := uint64(42)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	evs := make([]vm.Event, 0, 20000)
	for i := 0; i < 20000; i++ {
		addr := (next() % (1 << 20)) &^ 1
		size := uint8(1 << (next() % 4))
		if next()%16 == 0 {
			addr = addr&^0xfff | 0xffe // straddle a page boundary
		}
		kind := vm.EvAccess
		if next()%32 == 0 {
			kind = vm.EvCall // non-access records must be ignored
		}
		evs = append(evs, vm.Event{Kind: kind, Addr: addr, Size: size, Write: next()%3 == 0})
	}
	checkAgainstOracle(t, smallConfig(), evs)
}

func TestBatchedSharedTranslationRuns(t *testing.T) {
	// Dense same-line and same-page runs — the cases ConsumeEvents serves
	// without a set scan — interleaved with page straddles and
	// set-colliding strides.
	evs := make([]vm.Event, 0, 12000)
	base := uint64(0x10_0000)
	for r := 0; r < 100; r++ {
		page := base + uint64(r%7)*0x1000
		for i := 0; i < 50; i++ { // long same-page run, eight accesses per line
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + uint64(i*8)%0xff8, Size: 8})
		}
		// Page straddle: translates two pages, leaves the second MRU.
		evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 0xffe, Size: 4})
		// The straddle's last line and page again: the same-line path.
		evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 0x1000, Size: 1})
		// The straddle's second page, next line: the same-page path.
		evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 0x1040, Size: 8})
		// Colliding stride: same TLB set, different page.
		evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 64*0x1000, Size: 8})
	}
	checkAgainstOracle(t, smallConfig(), evs)
}
