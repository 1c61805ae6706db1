// Package cache simulates the memory hierarchy of the paper's evaluation
// machine, an Intel Xeon W-2195, together with a data TLB and a next-line
// prefetcher. It substitutes for the hardware performance counters the
// paper reads: the harness reports L1D misses (Figure 13) and a
// cycle-based execution-time model (Figures 12, 14, 15).
//
// The simulated geometry is 32 KiB 8-way L1D and 1 MiB 16-way L2 caches,
// as on the W-2195, and a 22,528 KiB 11-way L3: set counts round down to a
// power of two, so the W-2195's 25,344 KiB L3 (36,864 sets) is modelled
// with 32,768 sets. The DTLB holds 64 entries (4-way) and the STLB 1,536
// (12-way).
//
// The model is deliberately simple but captures what the paper's
// optimisation changes: which cache lines and pages the program's heap
// accesses touch. Placement that packs related objects into fewer lines
// produces fewer misses here for exactly the reason it does on hardware.
package cache

import (
	"fmt"

	"halo/internal/vm"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name    string
	Size    uint64 // total bytes
	Ways    int
	Latency uint64 // extra cycles charged when the access is satisfied here
}

// TLBConfig describes a translation cache level.
type TLBConfig struct {
	Entries  int
	Ways     int
	PageBits uint
	Penalty  uint64 // cycles charged when the lookup is satisfied below
}

// LevelStats counts per-level traffic.
type LevelStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns misses per access.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// lru is one set-associative structure with LRU replacement: a
// write-allocate cache level over line numbers, or a TLB over page
// numbers. Its tags are one flat array of sets*ways entries, set i
// occupying tags[i*ways : (i+1)*ways] in MRU-first order. A way holds
// key+1, so the zero value is an empty way and a fresh array needs no fill
// loop (line numbers, and page numbers of pages larger than a byte, stay
// below 2^64-1, so key+1 never wraps to zero). Ways fill from the MRU end,
// so the first empty way ends a set.
type lru struct {
	tags  []uint64
	ways  int
	mask  uint64
	stats LevelStats
}

// newLRU builds a structure of sets x ways, rounding sets down to a power
// of two for cheap indexing.
func newLRU(sets, ways int) lru {
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return lru{tags: make([]uint64, p*ways), ways: ways, mask: uint64(p - 1)}
}

// set returns the ways of key's set.
func (c *lru) set(key uint64) []uint64 {
	i := int(key&c.mask) * c.ways
	return c.tags[i : i+c.ways : i+c.ways]
}

// lookup moves key to the MRU way of its set, installing it on a miss by
// shifting the set down one way (the LRU way falls off a full set). It
// counts nothing, so prefetch fills use it directly. Returns true on hit.
//
//halo:hot
func (c *lru) lookup(key uint64) bool {
	set := c.set(key)
	tag := key + 1
	for i, t := range set {
		if t == tag || t == 0 {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return t != 0
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	return false
}

// access is a counted lookup.
func (c *lru) access(key uint64) bool {
	hit := c.lookup(key)
	c.stats.Accesses++
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return hit
}

// contains reports whether key is resident, without touching LRU order.
func (c *lru) contains(key uint64) bool {
	tag := key + 1
	for _, t := range c.set(key) {
		if t == tag {
			return true
		}
		if t == 0 {
			return false
		}
	}
	return false
}

// Config describes the whole hierarchy.
type Config struct {
	L1, L2, L3  LevelConfig
	TLB         TLBConfig // first-level DTLB
	STLB        TLBConfig // unified second-level TLB; Entries=0 disables
	MemLatency  uint64    // cycles for a DRAM access
	Prefetch    bool      // next-line prefetch into L2 on L2 miss
	PrefetchDeg int       // lines prefetched ahead (default 1)
	BaseCPI     float64
	ClockGHz    float64
}

// XeonW2195 returns the evaluation machine's parameters (§5.1): 32 KiB
// per-core L1D, 1,024 KiB per-core L2, 25,344 KiB shared L3. The
// simulated L3 holds 22,528 KiB, because its 36,864 sets round down to
// 32,768 (see the package comment). Latencies and the base CPI
// approximate Skylake-SP single-thread behaviour.
func XeonW2195() Config {
	return Config{
		L1:          LevelConfig{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 0},
		L2:          LevelConfig{Name: "L2", Size: 1024 << 10, Ways: 16, Latency: 12},
		L3:          LevelConfig{Name: "L3", Size: 25344 << 10, Ways: 11, Latency: 38},
		TLB:         TLBConfig{Entries: 64, Ways: 4, PageBits: 12, Penalty: 9},
		STLB:        TLBConfig{Entries: 1536, Ways: 12, PageBits: 12, Penalty: 70},
		MemLatency:  180,
		Prefetch:    true,
		PrefetchDeg: 1,
		BaseCPI:     0.45,
		ClockGHz:    3.7,
	}
}

// Hierarchy simulates the full data-side memory system.
type Hierarchy struct {
	cfg        Config
	l1, l2, l3 lru
	tlb, stlb  lru // stlb has no tags when Config.STLB is disabled
	memAccess  uint64
	stallCycle uint64
}

// New builds a hierarchy from the config. A level's set count is
// Size/LineSize/Ways, a TLB's Entries/Ways, each rounded down to a power
// of two.
func New(cfg Config) *Hierarchy {
	if cfg.PrefetchDeg == 0 {
		cfg.PrefetchDeg = 1
	}
	level := func(c LevelConfig) lru { return newLRU(int(c.Size)/LineSize/c.Ways, c.Ways) }
	h := &Hierarchy{
		cfg: cfg,
		l1:  level(cfg.L1),
		l2:  level(cfg.L2),
		l3:  level(cfg.L3),
		tlb: newLRU(cfg.TLB.Entries/cfg.TLB.Ways, cfg.TLB.Ways),
	}
	if cfg.STLB.Entries > 0 {
		h.stlb = newLRU(cfg.STLB.Entries/cfg.STLB.Ways, cfg.STLB.Ways)
	}
	return h
}

// ConsumeEvents implements vm.EventSink: the hierarchy drains the VM's
// batched event stream directly, simulating each load and store in batch
// order and ignoring the non-access records. An access that straddles a
// line boundary touches both lines, and one that straddles a page boundary
// translates both pages, as on real hardware. The hierarchy-wide charges
// accumulate in locals across the batch and are written back once.
//
// Two shortcuts skip set scans whose outcome is already known. Both rest
// on one invariant: a lookup leaves its key at the MRU way of its set, and
// between two accesses nothing touches L1 or the DTLB (the prefetcher
// fills only L2 and L3, and non-access records are skipped). So after an
// access, its last line sits at L1's MRU way and its last translated page
// at the DTLB's MRU way, where a repeat lookup is a hit whose MRU move is
// a no-op.
//
//   - Same line: an access lying within one line and one page that equal
//     the previous access's last line and last translated page is an L1
//     hit and a DTLB hit. It is counted as both, charged L1's latency,
//     and scans nothing. Page numbers are compared directly, so configs
//     whose pages are smaller than a line stay exact.
//   - Same page: an access lying within the last translated page is a
//     DTLB hit; only its lines are looked up.
//
// Counters and stall cycles are bit-identical to looking up every line
// and page (oracle_test.go's reference hierarchy pins this).
//
//halo:hot
func (h *Hierarchy) ConsumeEvents(batch []vm.Event) {
	var stall, mem, same uint64
	lastLine, lastPage := ^uint64(0), ^uint64(0) // none yet: no line is ^0
	pb := h.cfg.TLB.PageBits
	for i := range batch {
		ev := &batch[i]
		if ev.Kind != vm.EvAccess {
			continue
		}
		end := ev.Addr + uint64(ev.Size) - 1
		first, last := ev.Addr>>LineShift, end>>LineShift
		page, endPage := ev.Addr>>pb, end>>pb
		if first == lastLine && last == first && page == lastPage && endPage == page {
			same++
			continue
		}
		for line := first; line <= last; line++ {
			s, m := h.accessLine(line)
			stall += s
			mem += m
		}
		lastLine = last
		if page == lastPage && endPage == page {
			h.tlb.stats.Accesses++
			h.tlb.stats.Hits++
			continue
		}
		stall += h.translate(page)
		if endPage != page {
			stall += h.translate(endPage)
		}
		lastPage = endPage
	}
	h.tlb.stats.Accesses += same
	h.tlb.stats.Hits += same
	h.l1.stats.Accesses += same
	h.l1.stats.Hits += same
	h.stallCycle += stall + same*h.cfg.L1.Latency
	h.memAccess += mem
}

// translate returns the DTLB penalty on a first-level miss and the full
// page-walk penalty when the second-level TLB misses too.
func (h *Hierarchy) translate(page uint64) (stall uint64) {
	if h.tlb.access(page) {
		return 0
	}
	if h.stlb.tags != nil {
		if h.stlb.access(page) {
			return h.cfg.TLB.Penalty
		}
		return h.cfg.STLB.Penalty
	}
	return h.cfg.TLB.Penalty
}

func (h *Hierarchy) accessLine(line uint64) (stall, mem uint64) {
	if h.l1.access(line) {
		return h.cfg.L1.Latency, 0
	}
	if h.l2.access(line) {
		return h.cfg.L2.Latency, 0
	}
	if h.l3.access(line) {
		stall = h.cfg.L3.Latency
	} else {
		stall = h.cfg.MemLatency
		mem = 1
	}
	if h.cfg.Prefetch {
		// Next-line prefetcher at L2: on an L2 miss, pull the following
		// line(s) into L2/L3 without charging stall cycles or counting
		// the fills as accesses.
		for d := 1; d <= h.cfg.PrefetchDeg; d++ {
			next := line + uint64(d)
			if !h.l2.contains(next) {
				h.l2.lookup(next)
				h.l3.lookup(next)
			}
		}
	}
	return stall, mem
}

// Stats aggregates the hierarchy's counters.
type Stats struct {
	L1D  LevelStats
	L2   LevelStats
	L3   LevelStats
	TLB  LevelStats
	STLB LevelStats
	Mem  uint64 // DRAM accesses
}

// Stats returns a snapshot of all counters.
func (h *Hierarchy) Stats() Stats {
	return Stats{
		L1D:  h.l1.stats,
		L2:   h.l2.stats,
		L3:   h.l3.stats,
		TLB:  h.tlb.stats,
		STLB: h.stlb.stats,
		Mem:  h.memAccess,
	}
}

// StallCycles reports accumulated memory stall cycles.
func (h *Hierarchy) StallCycles() uint64 { return h.stallCycle }

// Cycles estimates total execution cycles for a run that retired the given
// instruction count: a base CPI plus the accumulated memory stalls.
func (h *Hierarchy) Cycles(instructions uint64) uint64 {
	return uint64(float64(instructions)*h.cfg.BaseCPI) + h.stallCycle
}

// Seconds converts Cycles to simulated wall-clock time at the configured
// frequency, the unit of the paper's Figure 12.
func (h *Hierarchy) Seconds(instructions uint64) float64 {
	return float64(h.Cycles(instructions)) / (h.cfg.ClockGHz * 1e9)
}

// String summarises the stats.
func (s Stats) String() string {
	return fmt.Sprintf("L1D %d/%d miss (%.2f%%), L2 %d miss, L3 %d miss, TLB %d miss, mem %d",
		s.L1D.Misses, s.L1D.Accesses, s.L1D.MissRate()*100, s.L2.Misses, s.L3.Misses, s.TLB.Misses, s.Mem)
}
