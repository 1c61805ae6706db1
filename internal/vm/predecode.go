// Per-function predecoder: lowers isa.Inst once into a dense, decoded form
// the threaded dispatch loop (dispatch.go) executes directly. Decoding
// happens exactly once per program — the result is cached on the
// *isa.Program itself, so fan-out trials over internal/pool and repeated
// halod training runs share one decode.
package vm

import (
	"halo/internal/isa"
	"halo/internal/obs"
)

// dinst is one decoded instruction: operands pulled out of the packed
// isa.Inst encoding into directly indexable fields. 24 bytes, accessed by
// pointer in the dispatch loop (the seed interpreter copied the 32-byte
// isa.Inst per step). op is the raw isa opcode, valid or not: an undefined
// opcode traps only if execution reaches it.
type dinst struct {
	op         isa.Opcode
	size       uint8 // load/store access width
	a, b, c, d uint8
	fn         isa.FnRef // direct-call target: callee index or extern
	addr       isa.Addr  // call-site address (EvCall, alloc sites)
	imm        int64
}

// dfunc is one function's decoded body plus the frame geometry the call
// path needs, kept dense beside the code for locality.
type dfunc struct {
	code    []dinst
	nregs   int
	nparams int
}

// Decoded is a program lowered for the threaded dispatcher. Instances are
// immutable after construction and shared freely between VMs.
type Decoded struct {
	funcs []dfunc
	insts int // decoded slots program-wide
}

// FusedSites always returns 0: the predecoder fuses no instructions. It is
// kept for callers that still report the figure.
func (d *Decoded) FusedSites() int { return 0 }

// Insts reports the total decoded instruction count.
func (d *Decoded) Insts() int { return d.insts }

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

// decodeInst lowers one instruction.
func decodeInst(in isa.Inst) dinst {
	return dinst{
		op: in.Op, size: in.Size, a: in.A, b: in.B, c: in.C, d: in.D,
		fn: in.Fn, addr: in.Addr, imm: in.Imm,
	}
}

// decodeProgram lowers every function. Fully deterministic: the same
// program always decodes to the same Decoded.
func decodeProgram(p *isa.Program) *Decoded {
	d := &Decoded{funcs: make([]dfunc, len(p.Funcs))}
	for fi, f := range p.Funcs {
		code := make([]dinst, len(f.Code))
		for pc, in := range f.Code {
			code[pc] = decodeInst(in)
		}
		d.funcs[fi] = dfunc{code: code, nregs: f.NRegs, nparams: f.NParams}
		d.insts += len(code)
	}
	return d
}
