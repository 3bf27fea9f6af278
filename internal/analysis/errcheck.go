package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UncheckedError flags statements that call one of this repo's own
// functions and drop a returned error on the floor. Stdlib calls are out
// of scope (go vet and good taste cover the usual suspects); the point
// here is that repo APIs signal admission failures, registry
// inconsistencies and rollback problems through errors, and ignoring
// those silently skews ψ. An intentional best-effort call is written
// `_ = f()` (or `_, _ = f()`), which makes the drop explicit and is not
// flagged.
var UncheckedError = &Analyzer{
	Name: "unchecked-error",
	Doc:  "flag dropped error results from this module's own functions",
	Run:  runUncheckedError,
}

func runUncheckedError(pass *Pass) {
	mod := pass.Pkg.Module
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != mod && !strings.HasPrefix(path, mod+"/") {
				return true
			}
			if !returnsError(fn) {
				return true
			}
			pass.Reportf(call.Pos(), "result of %s carries an error that is dropped; handle it or discard explicitly with _ =", fn.Name())
			return true
		})
	}
}

// calleeFunc resolves the static callee of a call, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// returnsError reports whether any result of fn is of type error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if named, ok := results.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}
