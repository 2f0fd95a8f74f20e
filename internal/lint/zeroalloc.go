package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Zeroalloc checks functions marked //whirl:zeroalloc — the span-emit
// path and the raw /v1/results gather path, whose 0-alloc deltas are
// load-bearing for serving p99 — for the allocating constructs that
// most often sneak into such code during review: fmt calls, string<->
// []byte conversions, runtime string concatenation, closures that
// capture locals (forcing them to escape), and append chains growing
// from a nil slice. The check is syntactic and intra-function: calls
// out to unmarked helpers are the callee's business (mark the helper
// too if it is on the hot path). The allocation *count* is still
// guarded dynamically by testing.AllocsPerRun tests (and make bench-ab);
// this analyzer moves the common regressions to compile time.
var Zeroalloc = &Analyzer{
	Name: "zeroalloc",
	Doc:  "//whirl:zeroalloc functions must avoid fmt, string<->[]byte churn, escaping closures, and unpreallocated append",
	Run:  runZeroalloc,
}

func runZeroalloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.FuncMarker(fn, MarkZeroalloc) == nil {
				continue
			}
			checkZeroalloc(pass, fn)
		}
	}
	pass.reportBadMarkers([]string{MarkZeroalloc}, false)
}

func checkZeroalloc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	fresh := freshSlices(info, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := calleeFunc(info, n); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s allocates in //whirl:zeroalloc function %s", callee.Name(), fn.Name.Name)
				return true
			}
			if msg := allocConversion(info, n); msg != "" {
				pass.Reportf(n.Pos(), "%s allocates in //whirl:zeroalloc function %s", msg, fn.Name.Name)
				return true
			}
			if id, ok := appendTarget(info, n); ok {
				if obj, isFresh := fresh[info.Uses[id]]; isFresh && obj {
					pass.Reportf(n.Pos(), "append to unpreallocated slice %s in //whirl:zeroalloc function %s; make it with a capacity", id.Name, fn.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isRuntimeStringConcat(info, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates in //whirl:zeroalloc function %s; append to a byte slice instead", fn.Name.Name)
			}
		case *ast.FuncLit:
			for _, name := range capturedVars(info, fn, n) {
				pass.Reportf(n.Pos(), "closure captures %s in //whirl:zeroalloc function %s; captured variables escape to the heap", name, fn.Name.Name)
			}
			return false // captures inside nested literals were just reported
		}
		return true
	})
}

// allocConversion describes a string<->byte/rune-slice conversion, the
// canonical hidden copy on hot paths. Returns "" for anything else.
func allocConversion(info *types.Info, call *ast.CallExpr) string {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return ""
	}
	dst := tv.Type.Underlying()
	src, ok := info.Types[call.Args[0]]
	if !ok {
		return ""
	}
	switch {
	case isString(dst) && isByteOrRuneSlice(src.Type.Underlying()):
		return "[]byte-to-string conversion"
	case isByteOrRuneSlice(dst) && isString(src.Type.Underlying()):
		return "string-to-[]byte conversion"
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// isRuntimeStringConcat reports whether e is a string + that survives
// to runtime (constant folding makes "a"+"b" free).
func isRuntimeStringConcat(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil { // constant-folded
		return false
	}
	return isString(tv.Type.Underlying())
}

// appendTarget returns the plain identifier being appended to, for
// calls of the form x = append(x, ...).
func appendTarget(info *types.Info, call *ast.CallExpr) (*ast.Ident, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil, false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	return target, true
}

// freshSlices collects local slice variables declared with no backing
// capacity: `var s []T`, `s := []T{}`, and `s := make([]T, 0)` with no
// cap argument. Appending to one of these grows from nil, reallocating
// along the way.
func freshSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	mark := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		if rhs == nil { // var s []T
			fresh[obj] = true
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			if len(rhs.Elts) == 0 {
				fresh[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "make" && len(rhs.Args) == 2 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
					fresh[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					mark(name, rhs)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					mark(id, n.Rhs[i])
				}
			}
		}
		return true
	})
	return fresh
}

// capturedVars lists the enclosing function's local variables that lit
// captures. A capturing closure pins its captures to the heap; the
// zero-alloc paths pass state explicitly instead.
func capturedVars(info *types.Info, fn *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		pos := obj.Pos()
		if pos < fn.Pos() || pos > fn.End() { // package-level or foreign
			return true
		}
		if pos >= lit.Pos() && pos <= lit.End() { // the literal's own locals
			return true
		}
		seen[obj] = true
		names = append(names, obj.Name())
		return true
	})
	return names
}
