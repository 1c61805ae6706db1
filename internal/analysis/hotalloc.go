package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc enforces the allocation-free contract of functions annotated
// //halo:hot (the VM dispatch loop, profiler ingest, sequitur slab ops,
// the affinity edge table, the shadow-span table and the cache model's
// event consumer and set lookup). Inside a hot
// function it flags every construct that introduces an allocation:
//
//   - append that can grow a local slice (appending into a reused buffer
//     slice expression like b[:0], or into a persistent struct field whose
//     backing array amortises, is allowed)
//   - map/slice literals, &composite literals, make, new
//   - fmt calls, errors.New, string concatenation, string<->[]byte/[]rune
//     conversions
//   - closures (function literals capture and escape)
//   - implicit interface conversions that box a non-pointer value
var Hotalloc = &Analyzer{
	Name:     "hotalloc",
	Doc:      "forbid allocation-introducing constructs in //halo:hot functions",
	Suppress: "hotalloc-ok",
	Run:      runHotalloc,
}

func runHotalloc(pass *Pass) error {
	if !ModulePackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHot(fd) {
				continue
			}
			h := &hotChecker{pass: pass, sig: pass.funcSignature(fd)}
			h.walk(fd.Body)
		}
	}
	return nil
}

func (p *Pass) funcSignature(fd *ast.FuncDecl) *types.Signature {
	if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature)
	}
	return nil
}

type hotChecker struct {
	pass *Pass
	sig  *types.Signature
}

func (h *hotChecker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			h.pass.Reportf(n.Pos(), "closure in //halo:hot function allocates; hoist it or pass a method value on a persistent receiver")
			return false // the closure body has its own allocation budget
		case *ast.CallExpr:
			h.call(n)
		case *ast.CompositeLit:
			h.compositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if t := h.pass.TypeOf(cl); t != nil {
						switch t.Underlying().(type) {
						case *types.Struct, *types.Array:
							h.pass.Reportf(n.Pos(), "address of composite literal in //halo:hot function escapes to the heap; reuse a preallocated value")
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && h.isString(n) {
				h.pass.Reportf(n.Pos(), "string concatenation in //halo:hot function allocates")
			}
		case *ast.AssignStmt:
			h.assign(n)
		case *ast.ValueSpec:
			h.valueSpec(n)
		case *ast.ReturnStmt:
			h.ret(n)
		}
		return true
	})
}

func (h *hotChecker) isString(e ast.Expr) bool {
	t := h.pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (h *hotChecker) call(call *ast.CallExpr) {
	switch {
	case h.pass.Builtin(call, "panic"):
		// A panicking path is terminal, never steady-state; errfmt
		// separately polices where panic may appear at all.
		return
	case h.pass.Builtin(call, "append"):
		if len(call.Args) == 0 {
			return
		}
		switch ast.Unparen(call.Args[0]).(type) {
		case *ast.SliceExpr:
			// append(buf[:0], ...) reuses the backing array
		case *ast.SelectorExpr:
			// append(x.f, ...) grows a persistent scratch field; its
			// capacity amortises across calls
		default:
			h.pass.Reportf(call.Pos(), "append to a local slice in //halo:hot function allocates when it grows; reuse a preallocated buffer (b = append(b[:0], ...)) or a struct scratch field")
		}
		return
	case h.pass.Builtin(call, "make"):
		h.pass.Reportf(call.Pos(), "make in //halo:hot function allocates; preallocate at construction time")
		return
	case h.pass.Builtin(call, "new"):
		h.pass.Reportf(call.Pos(), "new in //halo:hot function allocates; preallocate at construction time")
		return
	}

	// Conversions: string <-> []byte/[]rune copy, and explicit interface
	// conversions box.
	if tv, ok := h.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		h.conversion(call, tv.Type)
		return
	}

	if pkg, name, ok := h.pass.CalleePkgFunc(call); ok {
		switch {
		case pkg == "fmt":
			h.pass.Reportf(call.Pos(), "fmt.%s in //halo:hot function allocates (boxing + formatting)", name)
			return
		case pkg == "errors" && name == "New":
			h.pass.Reportf(call.Pos(), "errors.New in //halo:hot function allocates; use a preallocated sentinel error")
			return
		}
	}

	// Implicit interface conversions at the call boundary.
	h.callBoxing(call)
}

func (h *hotChecker) conversion(call *ast.CallExpr, to types.Type) {
	arg := call.Args[0]
	from := h.pass.TypeOf(arg)
	if from == nil {
		return
	}
	if types.IsInterface(to.Underlying()) {
		if h.boxes(from) {
			h.pass.Reportf(call.Pos(), "conversion to interface in //halo:hot function boxes a %s", from)
		}
		return
	}
	fromStr, toStr := h.isString(arg), isBasicString(to)
	fromBytes, toBytes := isByteOrRuneSlice(from), isByteOrRuneSlice(to)
	if (fromStr && toBytes) || (fromBytes && toStr) {
		h.pass.Reportf(call.Pos(), "string/[]byte conversion in //halo:hot function copies and allocates")
	}
}

func isBasicString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func (h *hotChecker) compositeLit(cl *ast.CompositeLit) {
	t := h.pass.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		h.pass.Reportf(cl.Pos(), "map literal in //halo:hot function allocates; preallocate at construction time")
	case *types.Slice:
		h.pass.Reportf(cl.Pos(), "slice literal in //halo:hot function allocates; preallocate at construction time")
	}
}

// boxes reports whether storing a value of concrete type t into an
// interface allocates: pointer-shaped values (pointers, channels, maps,
// funcs, unsafe pointers) are stored directly, everything else is copied
// to the heap.
func (h *hotChecker) boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// callBoxing flags concrete arguments passed to interface parameters.
func (h *hotChecker) callBoxing(call *ast.CallExpr) {
	tv, ok := h.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := h.pass.TypeOf(arg)
		if tvArg, ok := h.pass.TypesInfo.Types[arg]; ok && tvArg.IsNil() {
			continue
		}
		if h.boxes(at) {
			h.pass.Reportf(arg.Pos(), "argument boxes a %s into an interface parameter in //halo:hot function", at)
		}
	}
}

// assign flags concrete-to-interface stores and string += accumulation.
func (h *hotChecker) assign(s *ast.AssignStmt) {
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && h.isString(s.Lhs[0]) {
		h.pass.Reportf(s.Pos(), "string += in //halo:hot function allocates")
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i := range s.Lhs {
		lt := h.pass.TypeOf(s.Lhs[i])
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		if tv, ok := h.pass.TypesInfo.Types[s.Rhs[i]]; ok && tv.IsNil() {
			continue
		}
		if h.boxes(h.pass.TypeOf(s.Rhs[i])) {
			h.pass.Reportf(s.Rhs[i].Pos(), "assignment boxes a %s into an interface in //halo:hot function", h.pass.TypeOf(s.Rhs[i]))
		}
	}
}

func (h *hotChecker) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		obj := h.pass.TypesInfo.Defs[name]
		if obj == nil || !types.IsInterface(obj.Type().Underlying()) {
			continue
		}
		if tv, ok := h.pass.TypesInfo.Types[vs.Values[i]]; ok && tv.IsNil() {
			continue
		}
		if h.boxes(h.pass.TypeOf(vs.Values[i])) {
			h.pass.Reportf(vs.Values[i].Pos(), "declaration boxes a %s into an interface in //halo:hot function", h.pass.TypeOf(vs.Values[i]))
		}
	}
}

func (h *hotChecker) ret(s *ast.ReturnStmt) {
	if h.sig == nil {
		return
	}
	results := h.sig.Results()
	if len(s.Results) != results.Len() {
		return // naked return or comma-ok splat; nothing to check
	}
	for i, res := range s.Results {
		rt := results.At(i).Type()
		if !types.IsInterface(rt.Underlying()) {
			continue
		}
		if tv, ok := h.pass.TypesInfo.Types[res]; ok && tv.IsNil() {
			continue
		}
		if h.boxes(h.pass.TypeOf(res)) {
			h.pass.Reportf(res.Pos(), "return boxes a %s into interface result %d in //halo:hot function", h.pass.TypeOf(res), i)
		}
	}
}
