package cache

import (
	"testing"

	"halo/internal/vm"
)

// The reference hierarchy: the original slice-of-slices LRU model, one
// heap slice per set holding line (or page) numbers MRU-first and growing
// by append until the set is full. It shares no storage, lookup or batch
// code with Hierarchy and simulates every access the slow way (every line,
// then every page), so ConsumeEvents' flat tag arrays and both shortcuts
// are checked against an independent implementation.

type oracleLevel struct {
	ways  int
	mask  uint64
	tags  [][]uint64
	stats LevelStats
}

func newOracleLevel(sets, ways int) *oracleLevel {
	if sets <= 0 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return &oracleLevel{ways: ways, mask: uint64(p - 1), tags: make([][]uint64, p)}
}

func (l *oracleLevel) access(key uint64, count bool) bool {
	set := l.tags[key&l.mask]
	if count {
		l.stats.Accesses++
	}
	for i, t := range set {
		if t == key {
			copy(set[1:i+1], set[:i])
			set[0] = key
			if count {
				l.stats.Hits++
			}
			return true
		}
	}
	if count {
		l.stats.Misses++
	}
	if len(set) < l.ways {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = key
	l.tags[key&l.mask] = set
	return false
}

func (l *oracleLevel) contains(key uint64) bool {
	for _, t := range l.tags[key&l.mask] {
		if t == key {
			return true
		}
	}
	return false
}

type oracle struct {
	cfg        Config
	l1, l2, l3 *oracleLevel
	tlb, stlb  *oracleLevel
	mem, stall uint64
}

func newOracle(cfg Config) *oracle {
	if cfg.PrefetchDeg == 0 {
		cfg.PrefetchDeg = 1
	}
	lvl := func(c LevelConfig) *oracleLevel { return newOracleLevel(int(c.Size)/LineSize/c.Ways, c.Ways) }
	o := &oracle{
		cfg: cfg,
		l1:  lvl(cfg.L1),
		l2:  lvl(cfg.L2),
		l3:  lvl(cfg.L3),
		tlb: newOracleLevel(cfg.TLB.Entries/cfg.TLB.Ways, cfg.TLB.Ways),
	}
	if cfg.STLB.Entries > 0 {
		o.stlb = newOracleLevel(cfg.STLB.Entries/cfg.STLB.Ways, cfg.STLB.Ways)
	}
	return o
}

func (o *oracle) access(addr uint64, size uint8) {
	end := addr + uint64(size) - 1
	for line := addr >> LineShift; line <= end>>LineShift; line++ {
		o.line(line)
	}
	pb := o.cfg.TLB.PageBits
	o.translate(addr >> pb)
	if end>>pb != addr>>pb {
		o.translate(end >> pb)
	}
}

func (o *oracle) line(line uint64) {
	switch {
	case o.l1.access(line, true):
		o.stall += o.cfg.L1.Latency
		return
	case o.l2.access(line, true):
		o.stall += o.cfg.L2.Latency
		return
	case o.l3.access(line, true):
		o.stall += o.cfg.L3.Latency
	default:
		o.stall += o.cfg.MemLatency
		o.mem++
	}
	if o.cfg.Prefetch {
		for d := 1; d <= o.cfg.PrefetchDeg; d++ {
			next := line + uint64(d)
			if !o.l2.contains(next) {
				o.l2.access(next, false)
				o.l3.access(next, false)
			}
		}
	}
}

func (o *oracle) translate(page uint64) {
	switch {
	case o.tlb.access(page, true):
	case o.stlb == nil:
		o.stall += o.cfg.TLB.Penalty
	case o.stlb.access(page, true):
		o.stall += o.cfg.TLB.Penalty
	default:
		o.stall += o.cfg.STLB.Penalty
	}
}

func (o *oracle) stats() Stats {
	st := Stats{L1D: o.l1.stats, L2: o.l2.stats, L3: o.l3.stats, TLB: o.tlb.stats, Mem: o.mem}
	if o.stlb != nil {
		st.STLB = o.stlb.stats
	}
	return st
}

// checkAgainstOracle feeds evs to the reference hierarchy one access at a
// time and to Hierarchy.ConsumeEvents at batch sizes 1, 64 and 4096, and
// fails unless every counter and the stall cycles agree.
func checkAgainstOracle(t *testing.T, cfg Config, evs []vm.Event) {
	t.Helper()
	ref := newOracle(cfg)
	for _, ev := range evs {
		if ev.Kind == vm.EvAccess {
			ref.access(ev.Addr, ev.Size)
		}
	}
	for _, batchSize := range []int{1, 64, 4096} {
		h := New(cfg)
		for rest := evs; len(rest) > 0; {
			n := min(batchSize, len(rest))
			h.ConsumeEvents(rest[:n])
			rest = rest[n:]
		}
		if h.Stats() != ref.stats() {
			t.Fatalf("batch=%d: stats diverge from the reference:\n got %+v\nwant %+v", batchSize, h.Stats(), ref.stats())
		}
		if h.StallCycles() != ref.stall {
			t.Fatalf("batch=%d: stall cycles %d, reference %d", batchSize, h.StallCycles(), ref.stall)
		}
	}
}

// fuzzInput decodes fuzz bytes; reads past the end yield zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// decodeFuzzCase turns bytes into a small hierarchy geometry and an event
// stream. The geometry takes 1-16 ways per level, set counts that are not
// powers of two (so New's rounding is exercised), pages from 16 B to
// 4 KiB (smaller than a line at the low end), an optional STLB, and an
// optional prefetcher of degree 1-3. The stream mixes runs on one line,
// same-page hops, line and page straddles, set-colliding strides and
// non-access records, with sizes 1, 2, 4 and 8.
func decodeFuzzCase(data []byte) (Config, []vm.Event) {
	in := fuzzInput(data)
	ways := func() int { return int(in.byte()%16) + 1 }
	sets := func() int { return int(in.byte()%12) + 1 }
	level := func(lat uint64) LevelConfig {
		w := ways()
		return LevelConfig{Size: uint64(sets() * w * LineSize), Ways: w, Latency: lat}
	}
	cfg := Config{L1: level(1), L2: level(12), L3: level(38), MemLatency: 180}
	pb := uint(4 + in.byte()%9)
	tw := ways()
	cfg.TLB = TLBConfig{Entries: sets() * tw, Ways: tw, PageBits: pb, Penalty: 9}
	if in.byte()%2 == 0 {
		sw := ways()
		cfg.STLB = TLBConfig{Entries: sets() * sw, Ways: sw, PageBits: pb, Penalty: 70}
	}
	flags := in.byte()
	cfg.Prefetch = flags%2 == 0
	cfg.PrefetchDeg = int(flags>>1)%3 + 1

	var evs []vm.Event
	addr := uint64(1) << 20
	for len(in) > 0 && len(evs) < 4096 {
		op, arg := in.byte(), uint64(in.byte())
		size := uint8(1) << (op & 3)
		kind := vm.EvAccess
		switch (op >> 2) % 8 {
		case 0: // run on one line
			for i := uint64(0); i <= arg%8; i++ {
				evs = append(evs, vm.Event{Kind: kind, Addr: addr&^(LineSize-1) | (i*8)%LineSize, Size: size})
			}
			continue
		case 1: // next object on the same page
			addr = addr&^(1<<pb-1) | (arg*8)&(1<<pb-1)
		case 2: // straddle the next line boundary
			addr = (addr | (LineSize - 1)) - arg%uint64(size)
		case 3: // straddle the page boundary
			addr = (addr | (1<<pb - 1)) - arg%uint64(size)
		case 4: // stride to a set-colliding line
			addr += (arg%4 + 1) << 12
		case 5: // a far page
			addr = (1 << 20) + arg<<pb
		case 6:
			kind = vm.EvCall
		case 7:
			addr += arg
		}
		evs = append(evs, vm.Event{Kind: kind, Addr: addr, Size: size, Write: op&0x80 != 0})
	}
	return cfg, evs
}

// FuzzConsumeEvents checks ConsumeEvents against the reference hierarchy
// over fuzzer-chosen geometries and event streams.
func FuzzConsumeEvents(f *testing.F) {
	f.Add([]byte{7, 3, 2, 5, 9, 4, 1, 8, 0, 2, 4, 3, 0, 9, 4, 17, 8, 33, 12, 66, 200, 3, 8, 9, 2, 10})
	f.Add([]byte{0, 11, 15, 0, 15, 11, 0, 3, 3, 1, 1, 1, 2, 0, 3, 5, 7, 13, 11, 1, 19, 2, 23, 6})
	f.Add([]byte{15, 1, 15, 1, 15, 1, 8, 0, 0, 0, 6, 4, 1, 0, 5, 1, 21, 2, 29, 3, 13, 4, 17, 0})
	// A one-way, one-set L1: a line straddle's last line evicts its
	// first, so a run on the first line must miss. Catches a fast path
	// keyed on the straddle's first line instead of its last.
	f.Add([]byte("00000000010)07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, evs := decodeFuzzCase(data)
		checkAgainstOracle(t, cfg, evs)
	})
}

// TestOracleRandomised runs the oracle comparison over many decoded
// random byte strings, so every `go test` exercises the fuzz decoder's
// geometries without a fuzzing run.
func TestOracleRandomised(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+i*4)
		for j := range data {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			data[j] = byte(rng)
		}
		cfg, evs := decodeFuzzCase(data)
		checkAgainstOracle(t, cfg, evs)
	}
}
