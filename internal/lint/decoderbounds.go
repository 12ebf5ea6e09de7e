package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DecoderBounds guards the untrusted-codec discipline PR 5's fuzzing
// established: a count or length decoded from input must be compared
// against something (remaining input length, an element count, a sanity
// cap) before it sizes an allocation or bounds a pure accumulation loop.
// Otherwise a hostile snapshot/shard/wire payload declaring k=2^60
// entries turns into an instant OOM.
//
// Taint seeds are the encoding/binary readers (Uvarint, Varint,
// ReadUvarint, ReadVarint, and the ByteOrder Uint16/32/64 methods), the raw
// reads of the binary codec kit's Reader (internal/codec: Uvarint, BE64,
// LE32 — its Count and Uint(max) return bounded values), plus same-package
// helpers that (transitively) return such a value unchecked — e.g. a reader
// method wrapping binary.Uvarint. Taint follows assignments,
// arithmetic, and conversions; each copy is bounded independently. Any
// comparison mentioning the value sanitizes it from that point on (the
// decoder idiom is `if n > uint64(len(rest)) { return errTruncated }`), as
// does clamping through the min/max builtins.
//
// Flagged sites: make() with a tainted length or capacity, and for-loops
// whose condition is tainted while the body has no early exit (a loop that
// reads input per iteration fails fast on truncation and is fine; a pure
// accumulation loop spins k times on a forged k). "// lint:bounded" on the
// line opts out a site that is bounded by construction. _test.go files are
// exempt.
var DecoderBounds = &Analyzer{
	Name: "decoderbounds",
	Doc:  "check that decoded counts are bounds-checked before sizing allocations or loops",
	Run:  runDecoderBounds,
}

func runDecoderBounds(pass *Pass) error {
	sums := buildTaintSummaries(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			tw := &taintWalker{pass: pass, sums: sums, tainted: map[*types.Var]bool{}, report: true}
			tw.walkStmts(fd.Body.List)
		}
	}
	return nil
}

// taintSummaries records which same-package functions return
// tainted-unsanitized values at which result index.
type taintSummaries map[*types.Func]map[int]bool

func buildTaintSummaries(pass *Pass) taintSummaries {
	sums := taintSummaries{}
	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnDecl{obj, fd})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			tw := &taintWalker{pass: pass, sums: sums, tainted: map[*types.Var]bool{}}
			tw.returns = map[int]bool{}
			tw.walkStmts(fn.decl.Body.List)
			for i := range tw.returns {
				if !sums[fn.obj][i] {
					if sums[fn.obj] == nil {
						sums[fn.obj] = map[int]bool{}
					}
					sums[fn.obj][i] = true
					changed = true
				}
			}
		}
	}
	return sums
}

// taintWalker performs a linear, source-order walk of one function body.
// Branches are walked in sequence rather than forked: a bound check on any
// earlier path sanitizes — the decoder idiom always checks-then-returns,
// so this stays precise where it matters while avoiding path explosion.
type taintWalker struct {
	pass    *Pass
	sums    taintSummaries
	tainted map[*types.Var]bool
	report  bool
	// returns collects tainted result indices when running in summary
	// mode (report == false).
	returns map[int]bool
}

func (w *taintWalker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

func (w *taintWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.assignNames(vs.Names, vs.Values)
				}
			}
		}
	case *ast.ReturnStmt:
		for i, res := range s.Results {
			if w.returns != nil && w.exprTainted(res) {
				w.returns[i] = true
			}
			w.walkExpr(res)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond) // comparisons here sanitize
		w.walkStmt(s.Body)
		w.walkStmt(s.Else)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		if s.Cond != nil && w.exprTainted(s.Cond) && !bodyHasEarlyExit(s.Body) {
			w.flag(s.Cond.Pos(), "loop bound derives from decoded input without a prior bound check and the body has no early exit; validate the count against remaining input first")
		}
		w.walkExpr(s.Cond)
		w.walkStmt(s.Body)
		w.walkStmt(s.Post)
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		w.walkStmt(s.Body)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Tag)
		w.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		w.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.walkExpr(e)
		}
		w.walkStmts(s.Body)
	case *ast.SelectStmt:
		w.walkStmt(s.Body)
	case *ast.CommClause:
		w.walkStmt(s.Comm)
		w.walkStmts(s.Body)
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
	case *ast.DeferStmt:
		w.walkExpr(s.Call)
	case *ast.GoStmt:
		w.walkExpr(s.Call)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.IncDecStmt:
		w.walkExpr(s.X)
	}
}

func (w *taintWalker) walkAssign(a *ast.AssignStmt) {
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		// n += k keeps n's taint; a tainted k taints n.
		for i, lhs := range a.Lhs {
			if i < len(a.Rhs) && w.exprTainted(a.Rhs[i]) {
				if v := identVar(w.pass.TypesInfo, lhs); v != nil {
					w.tainted[v] = true
				}
			}
			w.walkExpr(lhs)
		}
		for _, rhs := range a.Rhs {
			w.walkExpr(rhs)
		}
		return
	}

	// Multi-result call: v, n := binary.Uvarint(buf)
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		if call, ok := unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			w.walkExpr(call)
			taintedAt := w.callTaintedResults(call)
			for i, lhs := range a.Lhs {
				w.setVar(lhs, taintedAt[i])
			}
			return
		}
	}

	var exprs []ast.Expr
	for i := range a.Lhs {
		var rhs ast.Expr
		if i < len(a.Rhs) {
			rhs = a.Rhs[i]
		}
		exprs = append(exprs, rhs)
	}
	for _, rhs := range a.Rhs {
		w.walkExpr(rhs)
	}
	for i, lhs := range a.Lhs {
		w.setVar(lhs, exprs[i] != nil && w.exprTainted(exprs[i]))
	}
}

func (w *taintWalker) assignNames(names []*ast.Ident, values []ast.Expr) {
	if len(values) == 1 && len(names) > 1 {
		if call, ok := unparen(values[0]).(*ast.CallExpr); ok {
			w.walkExpr(call)
			taintedAt := w.callTaintedResults(call)
			for i, name := range names {
				w.setVar(name, taintedAt[i])
			}
			return
		}
	}
	for _, v := range values {
		w.walkExpr(v)
	}
	for i, name := range names {
		w.setVar(name, i < len(values) && w.exprTainted(values[i]))
	}
}

func (w *taintWalker) setVar(lhs ast.Expr, tainted bool) {
	v := identVar(w.pass.TypesInfo, lhs)
	if v == nil {
		return
	}
	if tainted {
		w.tainted[v] = true
	} else {
		delete(w.tainted, v)
	}
}

// walkExpr visits e for two effects: flagging tainted make() sites, and
// sanitizing every tainted variable mentioned in a comparison.
func (w *taintWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				w.sanitize(n)
				return false
			}
		case *ast.CallExpr:
			if builtinName(w.pass.TypesInfo, n) == "make" {
				for _, sz := range n.Args[1:] {
					if w.exprTainted(sz) {
						w.flag(n.Pos(), "allocation size derives from decoded input without a prior bound check; compare it against the remaining input length first")
						break
					}
				}
			}
		}
		return true
	})
}

// sanitize clears taint from every variable mentioned in a comparison:
// the code has confronted the value with a bound.
func (w *taintWalker) sanitize(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v := localVarOf(w.pass.TypesInfo, id); v != nil {
				delete(w.tainted, v)
			}
		}
		return true
	})
}

// exprTainted reports whether e mentions a tainted variable or a
// taint-returning call. Clamping through min/max yields a clean value.
func (w *taintWalker) exprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch builtinName(w.pass.TypesInfo, n) {
			case "min", "max", "len", "cap":
				return false // clamped or structural: clean
			}
			if w.callTaintedResults(n)[0] {
				found = true
				return false
			}
			return true
		case *ast.Ident:
			if v := localVarOf(w.pass.TypesInfo, n); v != nil && w.tainted[v] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callTaintedResults returns which result indices of call carry taint.
func (w *taintWalker) callTaintedResults(call *ast.CallExpr) map[int]bool {
	if isConversion(w.pass.TypesInfo, call) {
		if len(call.Args) == 1 && w.exprTainted(call.Args[0]) {
			return map[int]bool{0: true}
		}
		return nil
	}
	f := calleeFunc(w.pass.TypesInfo, call)
	if f == nil {
		return nil
	}
	if pkg := f.Pkg(); pkg != nil && pkg.Path() == "encoding/binary" {
		switch f.Name() {
		case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
			"Uint16", "Uint32", "Uint64":
			return map[int]bool{0: true}
		}
	}
	if isCodecRawRead(f) {
		return map[int]bool{0: true}
	}
	if m := w.sums[f]; len(m) > 0 {
		return m
	}
	return nil
}

// codecPathSuffix locates the binary codec kit, setdiscovery/internal/codec.
const codecPathSuffix = "internal/codec"

// isCodecRawRead reports whether f is one of the kit Reader's raw reads:
// Uvarint, BE64 and LE32 return decoded values nothing has bounded yet.
// Count and Uint(max) bound their results before returning them, so like
// any other cross-package call they yield clean values.
func isCodecRawRead(f *types.Func) bool {
	if f.Pkg() == nil || !strings.HasSuffix(f.Pkg().Path(), codecPathSuffix) {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch f.Name() {
	case "Uvarint", "BE64", "LE32":
		return true
	}
	return false
}

func (w *taintWalker) flag(pos token.Pos, msg string) {
	if !w.report {
		return
	}
	if w.pass.HasMarker(pos, "lint:bounded") {
		return
	}
	w.pass.Reportf(pos, "%s (or annotate // lint:bounded)", msg)
}

// bodyHasEarlyExit reports whether the loop body can leave early — return,
// break, goto, or panic — which is what distinguishes a read-per-iteration
// decoder loop (fails fast on truncated input) from a pure accumulation
// loop spinning on a forged count.
func bodyHasEarlyExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return !found
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}

func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return localVarOf(info, id)
}
