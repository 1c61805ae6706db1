// Per-function predecoder: lowers isa.Inst once into a dense, decoded form
// the threaded dispatch loop (dispatch.go) executes directly. Decoding
// happens exactly once per program — the result is cached on the
// *isa.Program itself, so fan-out trials over internal/pool and repeated
// halod training runs share one decode.
//
// The decoded stream is also where superinstruction fusion happens: the
// SEQUITUR machinery from internal/sequitur runs over each function's
// static opcode stream, and adjacent pairs the grammar proves repeated (hot
// digrams) are fused into single decoded records when the pair has a
// specialised handler. A fused record executes both component semantics —
// same register writes, same events, same step accounting — so the observed
// event stream stays bit-identical to the unfused interpreter's; see
// dispatch.go for the mid-pair step-budget contract.
package vm

import (
	"halo/internal/isa"
	"halo/internal/obs"
	"halo/internal/sequitur"
)

// dop is a decoded opcode: the isa opcodes plus the fused
// superinstructions, indexing the threaded dispatcher's handler table.
type dop uint8

// Decoded opcodes. The base ops mirror isa's; the tail entries are the
// fused superinstructions.
const (
	dIllegal dop = iota // undefined isa opcode; traps when reached
	dNop
	dConst
	dMov
	dAdd
	dSub
	dMul
	dDiv
	dMod
	dAnd
	dOr
	dXor
	dShl
	dShr
	dAddImm
	dEq
	dNe
	dLt
	dLe
	dJmp
	dBz
	dBnz
	dCall    // direct internal call; fn holds the callee index
	dCallExt // external call, pre-classified; fn holds the isa.Extern
	dCallInd
	dRet
	dLoad
	dStore
	dGroupSet
	dGroupClr
	dHalt

	// Superinstructions: one decoded record executing two retired
	// instructions. The second component's original decoded form stays at
	// pc+1 (branch targets may enter there, and the step budget can expire
	// mid-pair).
	dConstAdd   // const a, imm ; add a2, b2, c2
	dCmpBr      // cmp[ck>>1] a, b, c ; bz/bnz[ck&1] a2 -> imm2
	dAddImmLoad // addi a, b, imm ; load(size2) a2, [b2 + imm2]
	dLoadAdd    // load(size) a, [b + imm] ; add a2, b2, c2
	dConstStore // const a, imm ; store(size2) [b2 + imm2], a2
	dLoadStore  // load(size) a, [b + imm] ; store(size2) [b2 + imm2], a2

	dopCount
)

// dinst is one decoded instruction: operands pulled out of the packed
// isa.Inst encoding into directly indexable fields, call targets and
// externs pre-classified, plus the second component's operands for fused
// records. 40 bytes, accessed by pointer in the dispatch loop (the seed
// interpreter copied the 32-byte isa.Inst per step).
type dinst struct {
	op         dop
	size       uint8 // load/store access width
	a, b, c, d uint8
	a2, b2, c2 uint8 // fused second-component registers
	ck         uint8 // dCmpBr: compare kind<<1 | bnz bit
	size2      uint8 // fused second-component access width
	imm        int64
	imm2       int64    // fused second-component immediate / branch target
	fn         int32    // dCall callee index; dCallExt extern id
	addr       isa.Addr // call-site address (EvCall, alloc sites)
}

// dCmpBr compare kinds (ck >> 1).
const (
	ckEq = iota
	ckNe
	ckLt
	ckLe
)

// dfunc is one function's decoded body plus the frame geometry the call
// path needs, kept dense beside the code for locality.
type dfunc struct {
	code    []dinst
	nregs   int
	nparams int
	fused   int // fused pair sites in this function
}

// Decoded is a program lowered for the threaded dispatcher. Instances are
// immutable after construction and shared freely between VMs.
type Decoded struct {
	funcs []dfunc
	fused int // fused pair sites program-wide
	insts int // decoded slots program-wide
}

// FusedSites reports how many instruction pairs were fused program-wide.
func (d *Decoded) FusedSites() int { return d.fused }

// Insts reports the total decoded instruction count.
func (d *Decoded) Insts() int { return d.insts }

// fuseMinCount is the hot-digram threshold: a static opcode pair must recur
// at least this often (SEQUITUR rule weight) before its occurrences fuse.
const fuseMinCount = 2

// Predecode returns the program's decoded form, lowering it on first use
// and caching the result on the program. Safe for concurrent use: racing
// decoders produce identical values and the last atomic store wins.
// Callers that fan a program out over a worker pool (internal/measure)
// pre-warm the cache once to avoid redundant racing decodes.
func Predecode(p *isa.Program) *Decoded {
	if c := p.DecodeCache(); c != nil {
		if d, ok := c.(*Decoded); ok {
			if obs.Enabled() {
				mPredecodeHits.Inc()
			}
			return d
		}
	}
	if obs.Enabled() {
		mPredecodeMisses.Inc()
	}
	d := decodeProgram(p)
	p.SetDecodeCache(d)
	return d
}

// opMap lowers defined isa opcodes to their decoded counterparts.
var opMap = [...]dop{
	isa.OpNop: dNop, isa.OpConst: dConst, isa.OpMov: dMov,
	isa.OpAdd: dAdd, isa.OpSub: dSub, isa.OpMul: dMul, isa.OpDiv: dDiv,
	isa.OpMod: dMod, isa.OpAnd: dAnd, isa.OpOr: dOr, isa.OpXor: dXor,
	isa.OpShl: dShl, isa.OpShr: dShr, isa.OpAddImm: dAddImm,
	isa.OpEq: dEq, isa.OpNe: dNe, isa.OpLt: dLt, isa.OpLe: dLe,
	isa.OpJmp: dJmp, isa.OpBz: dBz, isa.OpBnz: dBnz,
	isa.OpCall: dCall, isa.OpCallInd: dCallInd, isa.OpRet: dRet,
	isa.OpLoad: dLoad, isa.OpStore: dStore,
	isa.OpGroupSet: dGroupSet, isa.OpGroupClr: dGroupClr,
	isa.OpHalt: dHalt,
}

// decodeInst lowers one instruction (no fusion yet).
func decodeInst(in isa.Inst) dinst {
	d := dinst{
		size: in.Size, a: in.A, b: in.B, c: in.C, d: in.D,
		imm: in.Imm, addr: in.Addr,
	}
	if !in.Op.Valid() {
		// Preserve the reference interpreter's lazy trap: the illegal
		// opcode only faults if execution reaches it.
		d.op = dIllegal
		d.imm = int64(in.Op)
		return d
	}
	d.op = opMap[in.Op]
	if in.Op == isa.OpCall {
		if in.Fn.IsExtern() {
			d.op = dCallExt
			d.fn = int32(in.Fn.ExternOf())
		} else {
			d.fn = int32(in.Fn)
		}
	}
	return d
}

// decodeProgram lowers every function, then fuses hot digrams. Fully
// deterministic: the same program always decodes to the same Decoded.
func decodeProgram(p *isa.Program) *Decoded {
	d := &Decoded{funcs: make([]dfunc, len(p.Funcs))}
	counter := sequitur.NewDigramCounter()
	stream := make([]int64, 0, 256)
	for fi, f := range p.Funcs {
		code := make([]dinst, len(f.Code))
		stream = stream[:0]
		for pc, in := range f.Code {
			code[pc] = decodeInst(in)
			stream = append(stream, int64(in.Op))
		}
		// One grammar per function: digrams never straddle functions.
		counter.Observe(stream)
		d.funcs[fi] = dfunc{code: code, nregs: f.NRegs, nparams: f.NParams}
		d.insts += len(code)
	}
	hot := make(map[[2]int64]bool)
	for _, dg := range counter.Hot(fuseMinCount) {
		hot[[2]int64{dg.A, dg.B}] = true
	}
	for fi, f := range p.Funcs {
		n := fuseFunc(d.funcs[fi].code, f.Code, hot)
		d.funcs[fi].fused = n
		d.fused += n
	}
	return d
}

// fuseFunc rewrites fusable hot pairs in place, scanning greedily left to
// right. The second component keeps its original decoded form (branch
// targets may enter there, and the step budget can expire mid-pair), so a
// pair is blocked when its second slot is a branch target, and no pair
// starts inside one already fused.
func fuseFunc(code []dinst, src []isa.Inst, hot map[[2]int64]bool) int {
	if len(src) < 2 {
		return 0
	}
	target := make([]bool, len(src))
	for _, in := range src {
		if in.IsBranch() {
			if t := int(in.Imm); t >= 0 && t < len(src) {
				target[t] = true
			}
		}
	}
	n := 0
	for i := 0; i+1 < len(src); i++ {
		if target[i+1] || !hot[[2]int64{int64(src[i].Op), int64(src[i+1].Op)}] {
			continue
		}
		if f, ok := fusePair(src[i], src[i+1]); ok {
			code[i] = f
			n++
			i++ // the pair is consumed; slot i+1 keeps its original form
		}
	}
	return n
}

// isCmpOp reports whether the opcode is a fusable comparison.
func isCmpOp(op isa.Opcode) bool {
	return op == isa.OpEq || op == isa.OpNe || op == isa.OpLt || op == isa.OpLe
}

func cmpKindOf(op isa.Opcode) uint8 {
	switch op {
	case isa.OpEq:
		return ckEq
	case isa.OpNe:
		return ckNe
	case isa.OpLt:
		return ckLt
	default:
		return ckLe
	}
}

// fusePair builds the superinstruction for a supported opcode pair. The
// fused record carries both components' operands verbatim; the handler
// executes them strictly in order, so operand aliasing between the halves
// (e.g. addi writing the load's base register) needs no special casing.
func fusePair(a, b isa.Inst) (dinst, bool) {
	switch {
	case a.Op == isa.OpConst && b.Op == isa.OpAdd:
		return dinst{op: dConstAdd, a: a.A, imm: a.Imm,
			a2: b.A, b2: b.B, c2: b.C, addr: a.Addr}, true
	case isCmpOp(a.Op) && (b.Op == isa.OpBz || b.Op == isa.OpBnz):
		ck := cmpKindOf(a.Op) << 1
		if b.Op == isa.OpBnz {
			ck |= 1
		}
		return dinst{op: dCmpBr, a: a.A, b: a.B, c: a.C, ck: ck,
			a2: b.A, imm2: b.Imm, addr: a.Addr}, true
	case a.Op == isa.OpAddImm && b.Op == isa.OpLoad:
		return dinst{op: dAddImmLoad, a: a.A, b: a.B, imm: a.Imm,
			a2: b.A, b2: b.B, imm2: b.Imm, size2: b.Size, addr: a.Addr}, true
	case a.Op == isa.OpLoad && b.Op == isa.OpAdd:
		return dinst{op: dLoadAdd, a: a.A, b: a.B, imm: a.Imm, size: a.Size,
			a2: b.A, b2: b.B, c2: b.C, addr: a.Addr}, true
	case a.Op == isa.OpConst && b.Op == isa.OpStore:
		return dinst{op: dConstStore, a: a.A, imm: a.Imm,
			a2: b.A, b2: b.B, imm2: b.Imm, size2: b.Size, addr: a.Addr}, true
	case a.Op == isa.OpLoad && b.Op == isa.OpStore:
		return dinst{op: dLoadStore, a: a.A, b: a.B, imm: a.Imm, size: a.Size,
			a2: b.A, b2: b.B, imm2: b.Imm, size2: b.Size, addr: a.Addr}, true
	}
	return dinst{}, false
}

// isFused reports whether the decoded opcode is a superinstruction.
func (op dop) isFused() bool { return op >= dConstAdd && op < dopCount }
