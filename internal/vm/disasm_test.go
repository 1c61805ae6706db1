package vm

import (
	"testing"

	"halo/internal/isa"
	"halo/internal/prog"
)

// goldenDisasmProgram deterministically triggers both rendering shapes:
// fused pairs (addi+load where the greedy scan must pick between two
// overlapping hot windows, const+store) and plain records, a lib call
// among them.
func goldenDisasmProgram() *isa.Program {
	b := prog.NewBuilder("golden")

	inc := b.LibFunc("inc", 1)
	r := inc.Reg()
	inc.AddImm(r, inc.Param(0), 1)
	inc.Ret(r)

	f := b.Func("main", 0)
	sz := f.ConstReg(64)
	buf := f.Malloc(sz)
	x := f.Reg()
	y := f.Reg()
	// addi+load+add three times: addi+load and load+add are both hot;
	// the left-to-right scan fuses addi+load and leaves the add.
	for i := 0; i < 3; i++ {
		f.AddImm(x, buf, int64(8*i))
		f.Load(y, buf, int64(8*i), 8)
		f.Add(x, x, y)
	}
	// const+store twice: a hot pair.
	v := f.Reg()
	f.Const(v, 7)
	f.Store(buf, 0, v, 8)
	f.Const(v, 9)
	f.Store(buf, 8, v, 8)
	f.Mov(x, f.Call("inc", x))
	f.Ret(x)
	return b.MustBuild()
}

const goldenDisasm = `; program "golden"  entry=main  globals=0  fused=5/20

func inc(1) [lib]  ; #0, 2 regs, 0 fused
     0: addi r1, r0, 1
     1: ret r1

func main(0)  ; #1, 6 regs, 5 fused
     0: const r0, 64
     1: call r1, malloc(r0:1)
     2: fuse[addi.load] {addi r2, r1, 0 ; load8 r3, [r1+0]}
     4: add r2, r2, r3
     5: fuse[addi.load] {addi r2, r1, 8 ; load8 r3, [r1+8]}
     7: add r2, r2, r3
     8: fuse[addi.load] {addi r2, r1, 16 ; load8 r3, [r1+16]}
    10: add r2, r2, r3
    11: fuse[const.store] {const r4, 7 ; store8 [r1+0], r4}
    13: fuse[const.store] {const r4, 9 ; store8 [r1+8], r4}
    15: call r5, inc(r2:1)
    16: mov r2, r5
    17: ret r2
`

func TestDisasmFusedGolden(t *testing.T) {
	got := DisasmFused(goldenDisasmProgram())
	if got != goldenDisasm {
		t.Errorf("disasm diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, goldenDisasm)
	}
	// The program must keep exercising fused records, or the golden is
	// vacuous.
	if Predecode(goldenDisasmProgram()).FusedSites() == 0 {
		t.Fatal("golden program fuses no pairs")
	}
}
