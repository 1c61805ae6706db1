package vm

import (
	"fmt"
	"strings"

	"halo/internal/isa"
)

// fusedName names a superinstruction for disassembly.
func fusedName(op dop) string {
	switch op {
	case dConstAdd:
		return "const.add"
	case dCmpBr:
		return "cmp.br"
	case dAddImmLoad:
		return "addi.load"
	case dLoadAdd:
		return "load.add"
	case dConstStore:
		return "const.store"
	case dLoadStore:
		return "load.store"
	}
	return fmt.Sprintf("fused(%d)", op)
}

// DisasmFused renders the program's predecoded stream: the isa.Program
// disassembly (isa.Program.Disasm) with fused superinstructions shown as
// single records spanning both component pcs. It drives the halo CLI's
// `disasm -fused`, making the fusion decisions inspectable.
func DisasmFused(p *isa.Program) string {
	dp := Predecode(p)
	var b strings.Builder
	fmt.Fprintf(&b, "; program %q  entry=%s  globals=%d  fused=%d/%d\n",
		p.Name, p.Funcs[p.Entry].Name, p.Globals, dp.fused, dp.insts)
	for fi, f := range p.Funcs {
		fc := &dp.funcs[fi]
		lib := ""
		if f.Lib {
			lib = " [lib]"
		}
		fmt.Fprintf(&b, "\nfunc %s(%d)%s  ; #%d, %d regs, %d fused\n",
			f.Name, f.NParams, lib, fi, f.NRegs, fc.fused)
		for pc := 0; pc < len(f.Code); pc++ {
			in := &fc.code[pc]
			if in.op.isFused() {
				fmt.Fprintf(&b, "  %4d: fuse[%s] {%s ; %s}\n", pc, fusedName(in.op),
					p.DisasmInst(f.Code[pc]), p.DisasmInst(f.Code[pc+1]))
				pc++ // the second component is covered by the fused record
				continue
			}
			fmt.Fprintf(&b, "  %4d: %s\n", pc, p.DisasmInst(f.Code[pc]))
		}
	}
	return b.String()
}
