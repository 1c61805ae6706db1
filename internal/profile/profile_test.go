package profile

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"halo/internal/affinity"
	"halo/internal/alloc"
	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/prog"
	"halo/internal/vm"
)

// runProfiled executes a builder-defined program under the profiler.
func runProfiled(t *testing.T, cfg Config, build func(b *prog.Builder)) *Profile {
	t.Helper()
	b := prog.NewBuilder("t")
	build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := New(p, cfg)
	m := mem.NewMemory()
	v := vm.New(p, m, alloc.NewSizeSeg(mem.NewOS(m)), pr, vm.Config{Seed: 3})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return pr.Finish()
}

// chainNames renders a context chain as function names for assertions.
func chainNames(p *Profile, c *Context) []string {
	var out []string
	for _, e := range c.Chain {
		if e.Fn == AllocFn {
			out = append(out, "alloc")
		} else {
			out = append(out, p.Prog.Funcs[e.Fn].Name)
		}
	}
	return out
}

func TestContextsDistinguishCallers(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		mk := b.Func("mk", 0)
		sz := mk.ConstReg(16)
		mk.Ret(mk.Malloc(sz))
		f := b.Func("siteA", 0)
		f.Ret(f.Call("mk"))
		g := b.Func("siteB", 0)
		g.Ret(g.Call("mk"))
		m := b.Func("main", 0)
		pa := m.Call("siteA")
		pb := m.Call("siteB")
		va := m.Reg()
		m.LoadWord(va, pa, 0)
		vb := m.Reg()
		m.LoadWord(vb, pb, 0)
		m.RetConst(0)
	})
	// Two distinct allocation contexts: via siteA and via siteB.
	if len(prof.Contexts) != 2 {
		t.Fatalf("contexts = %d, want 2", len(prof.Contexts))
	}
}

func TestLibraryFramesSkipped(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		opn := b.LibFunc("operator_new", 1)
		opn.Ret(opn.Malloc(opn.Param(0)))
		mk := b.Func("make_node", 0)
		sz := mk.ConstReg(16)
		mk.Ret(mk.Call("operator_new", sz))
		m := b.Func("main", 0)
		p := m.Call("make_node")
		v := m.Reg()
		m.LoadWord(v, p, 0)
		m.RetConst(0)
	})
	if len(prof.Contexts) != 1 {
		t.Fatalf("contexts = %d, want 1", len(prof.Contexts))
	}
	names := chainNames(prof, prof.Contexts[0])
	for _, n := range names {
		if n == "operator_new" {
			t.Fatalf("library frame in chain: %v", names)
		}
	}
	// The alloc entry's site must be traced back into main-binary code.
	last := prof.Contexts[0].Chain[len(prof.Contexts[0].Chain)-1]
	if last.Fn != AllocFn {
		t.Fatalf("chain does not end at the allocator: %v", names)
	}
	f := prof.Prog.FuncOf(last.Site)
	if f == nil || f.Lib {
		t.Fatalf("alloc site not traced to the main binary: %v", last.Site)
	}
}

func TestRecursionReduced(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		rec := b.Func("rec", 1)
		d := rec.Param(0)
		leaf := rec.NewLabel()
		one := rec.ConstReg(1)
		c := rec.Reg()
		rec.Lt(c, d, one)
		rec.Bnz(c, leaf)
		d1 := rec.Reg()
		rec.AddImm(d1, d, -1)
		rec.Call("rec", d1)
		rec.Bind(leaf)
		sz := rec.ConstReg(16)
		p := rec.Malloc(sz)
		v := rec.Reg()
		rec.LoadWord(v, p, 0)
		rec.RetConst(0)

		m := b.Func("main", 0)
		// One call site, varying depth: recursion depth must not mint new
		// contexts beyond the reduced forms.
		m.LoopN(9, func(i prog.Reg) {
			m.Call("rec", i)
		})
		m.RetConst(0)
	})
	// Any recursion depth >= 2 canonicalises to the same reduced chain;
	// depth 1 differs (no repeated (rec, self-site) pair). So exactly 2
	// contexts, not one per depth.
	if len(prof.Contexts) != 2 {
		for _, c := range prof.Contexts {
			t.Logf("ctx: %v", chainNames(prof, c))
		}
		t.Fatalf("contexts = %d, want 2 (reduced recursion)", len(prof.Contexts))
	}
}

func TestObjectTrackingAndAffinity(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		mkA := b.Func("mkA", 0)
		szA := mkA.ConstReg(16)
		mkA.Ret(mkA.Malloc(szA))
		mkB := b.Func("mkB", 0)
		szB := mkB.ConstReg(16)
		mkB.Ret(mkB.Malloc(szB))
		m := b.Func("main", 0)
		a := m.Call("mkA")
		bb := m.Call("mkB")
		// Alternate accesses: strong affinity between the contexts.
		m.LoopN(50, func(prog.Reg) {
			va := m.Reg()
			m.LoadWord(va, a, 0)
			vb := m.Reg()
			m.LoadWord(vb, bb, 0)
		})
		m.RetConst(0)
	})
	if prof.TrackedAllocs != 2 {
		t.Fatalf("tracked = %d", prof.TrackedAllocs)
	}
	g := prof.Graph
	var ctxA, ctxB affinity.Ctx = -1, -1
	for _, c := range prof.Contexts {
		names := chainNames(prof, c)
		if names[0] == "mkA" {
			ctxA = c.ID
		}
		if names[0] == "mkB" {
			ctxB = c.ID
		}
	}
	if g.Weight(ctxA, ctxB) == 0 {
		t.Fatal("no affinity recorded between alternating contexts")
	}
}

func TestFreedObjectsUntracked(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		m := b.Func("main", 0)
		sz := m.ConstReg(32)
		p := m.Malloc(sz)
		v := m.Reg()
		m.LoadWord(v, p, 0)
		m.Free(p)
		// Dangling access: must not be attributed to the freed object.
		m.LoadWord(v, p, 0)
		m.RetConst(0)
	})
	if prof.TotalAccesses != 1 {
		t.Fatalf("accesses = %d, want 1 (freed object untracked)", prof.TotalAccesses)
	}
}

func TestLargeObjectsNotTracked(t *testing.T) {
	prof := runProfiled(t, Config{MaxObjectSize: 64}, func(b *prog.Builder) {
		m := b.Func("main", 0)
		szBig := m.ConstReg(128)
		big := m.Malloc(szBig)
		v := m.Reg()
		m.LoadWord(v, big, 0)
		szOk := m.ConstReg(64)
		ok := m.Malloc(szOk)
		m.LoadWord(v, ok, 0)
		m.RetConst(0)
	})
	if prof.TrackedAllocs != 1 {
		t.Fatalf("tracked = %d, want 1", prof.TrackedAllocs)
	}
	if prof.TotalAllocs != 2 {
		t.Fatalf("total = %d, want 2", prof.TotalAllocs)
	}
}

func TestTraceRecordsMacroAccesses(t *testing.T) {
	prof := runProfiled(t, Config{RecordTrace: true}, func(b *prog.Builder) {
		m := b.Func("main", 0)
		sz := m.ConstReg(16)
		a := m.Malloc(sz)
		sz2 := m.ConstReg(16)
		bb := m.Malloc(sz2)
		v := m.Reg()
		m.LoadWord(v, a, 0)
		m.LoadWord(v, a, 8) // same object: same macro access
		m.LoadWord(v, bb, 0)
		m.LoadWord(v, a, 0)
		m.RetConst(0)
	})
	if len(prof.Trace) != 3 {
		t.Fatalf("trace = %d refs, want 3 (a, b, a)", len(prof.Trace))
	}
	if prof.Trace[0].Obj == prof.Trace[1].Obj {
		t.Fatal("distinct objects share identity")
	}
	if prof.Trace[0].Obj != prof.Trace[2].Obj {
		t.Fatal("revisited object changed identity")
	}
}

func TestReduceChainProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		chain := make([]ChainEntry, len(raw))
		for i, v := range raw {
			chain[i] = ChainEntry{Fn: int32(v % 7), Site: isa.Addr(v % 13)}
		}
		red := reduceChain(chain)
		// No duplicate pairs.
		seen := map[ChainEntry]bool{}
		for _, e := range red {
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		// Every input pair present.
		for _, e := range chain {
			if !seen[e] {
				return false
			}
		}
		// Idempotent.
		again := reduceChain(red)
		if len(again) != len(red) {
			return false
		}
		for i := range red {
			if red[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestObjIndexProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		idx := newObjIndex()
		live := map[uint64]uint64{} // base -> serial
		for i, op := range ops {
			base := uint64(op%512)*16 + 16
			if _, ok := live[base]; ok && op%3 == 0 {
				idx.remove(base)
				delete(live, base)
				continue
			}
			idx.insert(object{base: base, size: 16, serial: uint64(i)})
			live[base] = uint64(i)
		}
		if idx.len() != len(live) {
			return false
		}
		for base, serial := range live {
			if got := idx.find(base + 7); got == nil || got.serial != serial {
				return false
			}
		}
		// Gap addresses miss.
		return idx.find(5) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestObjIndexSubGranulePacking pins the overflow path: objects packed
// tighter than the 8-byte shadow granule (impossible under the built-in
// allocators, but the index must stay exact for any geometry).
func TestObjIndexSubGranulePacking(t *testing.T) {
	idx := newObjIndex()
	// Three 2-byte objects inside one granule, plus one straddling the
	// granule boundary.
	for i := 0; i < 3; i++ {
		idx.insert(object{base: 64 + uint64(i)*2, size: 2, serial: uint64(i + 1)})
	}
	idx.insert(object{base: 70, size: 4, serial: 5}) // spans granules 8 and 9
	for i := 0; i < 3; i++ {
		base := 64 + uint64(i)*2
		for off := uint64(0); off < 2; off++ {
			got := idx.find(base + off)
			if got == nil || got.serial != uint64(i+1) {
				t.Fatalf("find(%d) = %v, want serial %d", base+off, got, i+1)
			}
		}
	}
	if got := idx.find(72); got == nil || got.serial != 5 {
		t.Fatalf("straddling object not found at 72: %v", got)
	}
	if idx.len() != 4 {
		t.Fatalf("len = %d, want 4", idx.len())
	}
	// Remove the middle object; its neighbours must survive intact.
	if o := idx.remove(66); o == nil || o.serial != 2 {
		t.Fatalf("remove(66) = %v, want serial 2", o)
	}
	if got := idx.find(66); got != nil {
		t.Fatalf("removed object still found: %v", got)
	}
	if got := idx.find(65); got == nil || got.serial != 1 {
		t.Fatalf("neighbour lost after overflow removal: %v", got)
	}
	if got := idx.find(71); got == nil || got.serial != 5 {
		t.Fatalf("straddler lost after overflow removal: %v", got)
	}
}

// TestAllocatedBetweenMatchesAllocationLog checks the profiler's
// co-allocatability answer against a brute-force scan of the allocation
// log. Random malloc/realloc/free sequences from a handful of contexts
// (some allocations too large to track, which still take a serial) are
// fed through the allocation hook; then every endpoint of every serial
// pair, including ranges far wider than 64 serials, is queried.
func TestAllocatedBetweenMatchesAllocationLog(t *testing.T) {
	b := prog.NewBuilder("t")
	const nfuncs = 5
	for i := 0; i < nfuncs; i++ {
		f := b.Func(fmt.Sprintf("f%d", i), 0)
		f.RetConst(0)
	}
	m := b.Func("main", 0)
	m.RetConst(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := func(ops []uint16) bool {
		pr := New(p, Config{})
		var live []uint64
		next := uint64(0x1000)
		for _, op := range ops {
			pr.call(isa.NoAddr, int32(op%nfuncs))
			size := uint64(op>>3%64) + 1
			if op%29 == 0 {
				size = pr.cfg.MaxObjectSize + 1
			}
			switch {
			case op%7 == 0 && len(live) > 0:
				k := int(op>>5) % len(live)
				pr.alloc(vm.AllocEvent{Kind: vm.KindFree, Old: live[k]})
				live = append(live[:k], live[k+1:]...)
			case op%11 == 0 && len(live) > 0:
				k := int(op>>5) % len(live)
				pr.alloc(vm.AllocEvent{Kind: vm.KindRealloc, Old: live[k], Ptr: next, Size: size})
				live[k] = next
			default:
				pr.alloc(vm.AllocEvent{Kind: vm.KindMalloc, Ptr: next, Size: size})
				live = append(live, next)
			}
			next += 4096
			pr.ret()
		}
		// The allocation log: the context of every serial issued.
		ctxOf := make([]affinity.Ctx, pr.serial+1)
		for _, c := range pr.contexts.list {
			for _, s := range c.Serials() {
				ctxOf[s] = c.ID
			}
		}
		for lo := uint64(1); lo <= pr.serial; lo++ {
			for hi := lo + 1; hi <= pr.serial; hi++ {
				for _, s := range []uint64{lo, hi} {
					want := false
					for x := lo + 1; x < hi; x++ {
						if ctxOf[x] == ctxOf[s] {
							want = true
							break
						}
					}
					if got := pr.AllocatedBetween(s, lo, hi); got != want {
						t.Logf("AllocatedBetween(%d, %d, %d) = %v, allocation log says %v", s, lo, hi, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	// quick's default slices are too short to span wide ranges, so the
	// sequences are drawn here: 128-256 operations each.
	gen := func(vals []reflect.Value, r *rand.Rand) {
		ops := make([]uint16, 128+r.Intn(129))
		for i := range ops {
			ops[i] = uint16(r.Uint32())
		}
		vals[0] = reflect.ValueOf(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Values: gen}); err != nil {
		t.Fatal(err)
	}
}
