package vm

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/prog"
)

// The differential harness: random well-defined programs run through the
// reference switch interpreter and the predecoded threaded dispatcher,
// which must agree on everything observable — result, error, retired-step
// and load/store counts, the register stack and heap contents left
// behind, the group-state vector and the complete event stream — at any
// batch size and at any step budget.

// captureSink accumulates the complete event stream across flushes.
type captureSink struct{ events []Event }

func (c *captureSink) ConsumeEvents(batch []Event) {
	c.events = append(c.events, batch...)
}

const fuzzBufSize = 256

// fuzzLeaves are the straight-line lib leaf functions every generated
// program defines; indirect calls target them through ConstFunc.
var fuzzLeaves = []string{"leaf_add", "leaf_div"}

// genOps emits n random operations into f. The generated code is always
// well-defined: divisors are non-zero, shift counts are masked by the
// machine, memory accesses stay inside the buf/big scratch buffers, loops
// are bounded. Over a handful of seeds every isa opcode appears (halt is
// added by genProgram); big spans tlbSize+ pages so direct-mapped TLB slot
// collisions (two pages, same index) occur.
func genOps(rng *rand.Rand, f *prog.FuncBuilder, temps []prog.Reg, buf, big prog.Reg, callees []string, n int) {
	rr := func() prog.Reg { return temps[rng.Intn(len(temps))] }
	off := func(size int64) int64 { return rng.Int63n(fuzzBufSize - size + 1) }
	nz := f.ConstReg(int64(rng.Intn(7)) + 1) // safe divisor
	for i := 0; i < n; i++ {
		switch rng.Intn(16) {
		case 0:
			f.Const(rr(), rng.Int63n(1<<20)-1<<19)
		case 1:
			f.Add(rr(), rr(), rr())
		case 2:
			f.Sub(rr(), rr(), rr())
		case 3:
			f.Mul(rr(), rr(), rr())
		case 4:
			if rng.Intn(2) == 0 {
				f.Div(rr(), rr(), nz)
			} else {
				f.Mod(rr(), rr(), nz)
			}
		case 5:
			f.AddImm(rr(), rr(), rng.Int63n(64)-32)
		case 6:
			sz := uint8(1 << rng.Intn(4))
			f.Load(rr(), buf, off(int64(sz)), sz)
		case 7:
			sz := uint8(1 << rng.Intn(4))
			f.Store(buf, off(int64(sz)), rr(), sz)
		case 8:
			switch rng.Intn(5) {
			case 0:
				f.And(rr(), rr(), rr())
			case 1:
				f.Or(rr(), rr(), rr())
			case 2:
				f.Xor(rr(), rr(), rr())
			case 3:
				f.Shl(rr(), rr(), rr())
			default:
				f.Shr(rr(), rr(), rr())
			}
		case 9: // compare, then branch over a skipped op
			c := rr()
			switch rng.Intn(4) {
			case 0:
				f.Eq(c, rr(), rr())
			case 1:
				f.Ne(c, rr(), rr())
			case 2:
				f.Lt(c, rr(), rr())
			default:
				f.Le(c, rr(), rr())
			}
			skip := f.NewLabel()
			if rng.Intn(2) == 0 {
				f.Bz(c, skip)
			} else {
				f.Bnz(c, skip)
			}
			f.AddImm(rr(), rr(), 1)
			f.Bind(skip)
		case 10:
			f.Mov(rr(), f.Call(callees[rng.Intn(len(callees))], rr(), rr()))
		case 11:
			t := f.Reg()
			f.ConstFunc(t, fuzzLeaves[rng.Intn(len(fuzzLeaves))])
			f.Mov(rr(), f.CallInd(t, rr(), rr()))
		case 12: // TLB slot collision: two pages, same direct-mapped index
			const stride = tlbSize * mem.PageSize
			v := rr()
			f.Store(big, 0, v, 8)
			f.Store(big, stride, v, 8)
			f.Load(rr(), big, 0, 8)
			f.Load(rr(), big, stride, 8)
		case 13: // placeholder; patchPlaceholders turns it into nop/gset/gclr
			r := rr()
			f.Mov(r, r)
		default:
			f.Mov(rr(), f.RandConst(1000))
		}
	}
}

// fuzzGroupBits is how many group-state bits the patched gset/gclr touch:
// few enough that a gclr often clears a bit an earlier gset set, so a
// wrong gclr shows in the final vector.
const fuzzGroupBits = 4

// patchPlaceholders rewrites, in place, every self-move genOps emitted as
// a placeholder into a nop, gset or gclr. The builder authors neither (the
// rewriter inserts group ops into linked binaries), and patching one slot
// for another leaves branch targets and call-site addresses untouched. No
// other builder path emits a self-move: call results, argument windows and
// loop counters all move into fresh registers.
func patchPlaceholders(rng *rand.Rand, p *isa.Program) {
	for _, fn := range p.Funcs {
		for pc, in := range fn.Code {
			if in.Op != isa.OpMov || in.A != in.B {
				continue
			}
			repl := isa.Inst{Op: isa.OpNop, Addr: in.Addr}
			switch rng.Intn(3) {
			case 1:
				repl.Op, repl.Imm = isa.OpGroupSet, rng.Int63n(fuzzGroupBits)
			case 2:
				repl.Op, repl.Imm = isa.OpGroupClr, rng.Int63n(fuzzGroupBits)
			}
			fn.Code[pc] = repl
		}
	}
}

// fuzzBigSize spans the whole direct-mapped TLB plus one slack page, so
// stride-tlbSize*PageSize accesses collide in one slot.
const fuzzBigSize = (tlbSize+1)*mem.PageSize + 64

// genProgram builds a deterministic random program: two straight-line
// helpers, two straight-line lib leaf functions (one divides by a non-zero
// constant), and a main that mixes direct computation, loops, direct and
// indirect calls and memory traffic over a small scratch buffer plus a
// TLB-spanning big buffer. About a third of the seeds end main with halt
// instead of ret.
func genProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := prog.NewBuilder("fuzz")

	{ // lib leaf: straight-line, tiny, no trapping ops
		h := b.LibFunc(fuzzLeaves[0], 2)
		r := h.Reg()
		h.Add(r, h.Param(0), h.Param(1))
		h.AddImm(r, r, rng.Int63n(16))
		h.Ret(r)
	}
	{ // lib leaf with a div
		h := b.LibFunc(fuzzLeaves[1], 2)
		r := h.Reg()
		three := h.ConstReg(3)
		h.Div(r, h.Param(0), three)
		h.Add(r, r, h.Param(1))
		h.Ret(r)
	}

	for _, name := range []string{"h1", "h2"} {
		h := b.Func(name, 2)
		sz := h.ConstReg(fuzzBufSize)
		buf := h.Malloc(sz)
		bsz := h.ConstReg(fuzzBigSize)
		big := h.Malloc(bsz)
		temps := []prog.Reg{h.Param(0), h.Param(1)}
		for i := 0; i < 3; i++ {
			temps = append(temps, h.ConstReg(rng.Int63n(50)))
		}
		genOps(rng, h, temps, buf, big, fuzzLeaves, 6+rng.Intn(10))
		h.Free(big)
		h.Free(buf)
		h.Ret(temps[rng.Intn(len(temps))])
	}

	f := b.Func("main", 0)
	sz := f.ConstReg(fuzzBufSize)
	buf := f.Malloc(sz)
	bsz := f.ConstReg(fuzzBigSize)
	big := f.Malloc(bsz)
	temps := make([]prog.Reg, 0, 6)
	for i := 0; i < 6; i++ {
		temps = append(temps, f.ConstReg(rng.Int63n(100)))
	}
	callees := append([]string{"h1", "h2"}, fuzzLeaves...)
	genOps(rng, f, temps, buf, big, callees, 8+rng.Intn(12))
	for l := 0; l < 2+rng.Intn(2); l++ {
		f.LoopN(2+rng.Int63n(4), func(prog.Reg) {
			genOps(rng, f, temps, buf, big, callees, 4+rng.Intn(8))
		})
	}
	f.Free(big)
	f.Free(buf)
	acc := f.Reg()
	f.Const(acc, 0)
	for _, r := range temps {
		f.Add(acc, acc, r)
	}
	if rng.Intn(3) == 0 {
		f.Halt()
	}
	f.Ret(acc)
	p := b.MustBuild()
	patchPlaceholders(rng, p)
	return p
}

// runOutcome is everything observable about one execution.
type runOutcome struct {
	res    int64
	err    string
	steps  uint64
	loads  uint64
	stores uint64
	regs   []int64
	heap   []byte
	group  string
	events []Event
}

func runEngine(p *isa.Program, mode DispatchMode, batch int, maxSteps uint64) runOutcome {
	m := mem.NewMemory()
	sink := &captureSink{}
	v := New(p, m, newBump(m), sink, Config{
		Seed: 99, Dispatch: mode, BatchSize: batch, MaxSteps: maxSteps,
	})
	res, err := v.Run()
	out := runOutcome{res: res, steps: v.Steps(), loads: v.Loads(), stores: v.Stores(),
		regs: append([]int64(nil), v.regs...), heap: heapImage(m, sink.events),
		group: v.GroupState().String(), events: sink.events}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// heapImage returns the address and contents of every materialised page
// from the heap base to the end of the highest block the run allocated
// (the bump allocator hands out blocks upwards from mem.HeapBase). Both
// engines materialise a page on its first store and never on a load, so
// the set of pages is itself part of the comparison.
func heapImage(m *mem.Memory, events []Event) []byte {
	var end uint64
	for _, e := range events {
		if e.Kind == EvAlloc && e.Addr+e.Bytes > end {
			end = e.Addr + e.Bytes
		}
	}
	var img []byte
	for a := uint64(mem.HeapBase); a < end; a += mem.PageSize {
		if p := m.PageFor(a, false); p != nil {
			img = binary.LittleEndian.AppendUint64(img, a)
			img = append(img, p[:]...)
		}
	}
	return img
}

func diffOutcomes(t *testing.T, label string, ref, got runOutcome) {
	t.Helper()
	if got.res != ref.res || got.err != ref.err {
		t.Errorf("%s: result %d err %q, want %d %q", label, got.res, got.err, ref.res, ref.err)
	}
	if got.steps != ref.steps || got.loads != ref.loads || got.stores != ref.stores {
		t.Errorf("%s: steps/loads/stores %d/%d/%d, want %d/%d/%d",
			label, got.steps, got.loads, got.stores, ref.steps, ref.loads, ref.stores)
	}
	if !slices.Equal(got.regs, ref.regs) {
		t.Errorf("%s: registers %v, want %v", label, got.regs, ref.regs)
	}
	if !slices.Equal(got.heap, ref.heap) {
		t.Errorf("%s: heap contents differ (%d vs %d bytes)", label, len(got.heap), len(ref.heap))
	}
	if got.group != ref.group {
		t.Errorf("%s: group state %s, want %s", label, got.group, ref.group)
	}
	if len(got.events) != len(ref.events) {
		t.Errorf("%s: %d events, want %d", label, len(got.events), len(ref.events))
		return
	}
	for i := range got.events {
		if got.events[i] != ref.events[i] {
			t.Errorf("%s: event %d = %+v, want %+v", label, i, got.events[i], ref.events[i])
			return
		}
	}
}

// diffProgram checks both engines agree on a program at several batch
// sizes and at step budgets that expire part-way through the run.
func diffProgram(t *testing.T, p *isa.Program, seed int64) {
	t.Helper()
	ref := runEngine(p, DispatchSwitch, 1, 0)
	budgets := []uint64{0} // 0 = default (run to completion)
	if ref.steps > 4 {
		budgets = append(budgets, ref.steps-1, ref.steps/2, ref.steps/3+1, 7)
	}
	for _, ms := range budgets {
		r := ref
		if ms != 0 {
			r = runEngine(p, DispatchSwitch, 1, ms)
		}
		for _, batch := range []int{1, 64, 4096} {
			got := runEngine(p, DispatchThreaded, batch, ms)
			diffOutcomes(t, prettyLabel(seed, ms, batch), r, got)
		}
	}
}

func prettyLabel(seed int64, maxSteps uint64, batch int) string {
	return "seed=" + itoa(seed) + " maxSteps=" + itoa(int64(maxSteps)) + " batch=" + itoa(int64(batch))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestDispatchDifferential(t *testing.T) {
	seen := map[isa.Opcode]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		p := genProgram(seed)
		for _, fn := range p.Funcs {
			for _, in := range fn.Code {
				seen[in.Op] = true
			}
		}
		diffProgram(t, p, seed)
	}
	// The property only covers the opcodes the corpus contains.
	for op := isa.Opcode(0); op.Valid(); op++ {
		if !seen[op] {
			t.Errorf("opcode %s never appears in the differential corpus", op)
		}
	}
}

// FuzzDispatchDifferential drives the same comparison from the fuzzer:
// any seed must produce identical observable behaviour on both engines.
func FuzzDispatchDifferential(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 12345, 31, 77, 4242, 98765} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffProgram(t, genProgram(seed), seed)
	})
}
