package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// This file is the whole-module call graph: every declared function of
// the loaded packages, with its direct static calls resolved across
// package boundaries. lockorder follows it to learn which functions
// block and which mutexes they take; Run builds one Module per
// invocation and every Pass shares it.

// FuncInfo is one declared function or method of the module.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	callees []*FuncInfo
}

// Callees returns the module functions the body calls directly, in
// source order. Calls inside function literals and the callee of a go
// statement run on another schedule and are left out, as are method
// values and dynamic calls (interface methods, function values).
func (f *FuncInfo) Callees() []*FuncInfo { return f.callees }

// Name renders the function qualified enough for a diagnostic:
// "pkgbase.Func" or "pkgbase.(Recv).Method".
func (f *FuncInfo) Name() string {
	base := f.Pkg.ImportPath
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if recv := f.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", base, n.Obj().Name(), f.Obj.Name())
		}
	}
	return base + "." + f.Obj.Name()
}

// pending is a diagnostic computed at module scope and delivered later
// through the owning package's pass, so lint:allow suppression applies
// exactly as it does for per-package analyzers.
type pending struct {
	pos token.Pos
	msg string
}

// Module is the shared call graph over every package of one Run.
type Module struct {
	Pkgs []*Package

	funcs map[*types.Func]*FuncInfo
	byPkg map[*Package][]*FuncInfo // source order within each package

	lockOnce  sync.Once
	lockDiags map[*Package][]pending
}

// NewModule indexes the packages' function declarations and resolves
// their direct calls.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		funcs: make(map[*types.Func]*FuncInfo),
		byPkg: make(map[*Package][]*FuncInfo),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				m.funcs[obj] = fi
				m.byPkg[pkg] = append(m.byPkg[pkg], fi)
			}
		}
	}
	for _, fis := range m.byPkg {
		for _, fi := range fis {
			m.resolveCallees(fi)
		}
	}
	return m
}

// Funcs returns the package's declared functions in source order.
func (m *Module) Funcs(pkg *Package) []*FuncInfo { return m.byPkg[pkg] }

// resolveCallees records the function's direct calls to module
// functions, skipping go statements and function literals.
func (m *Module) resolveCallees(fi *FuncInfo) {
	spawned := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			spawned[n.Call] = true
		case *ast.CallExpr:
			if callee := m.StaticCallee(fi.Pkg.Info, n); callee != nil && !spawned[n] {
				fi.callees = append(fi.callees, callee)
			}
		}
		return true
	})
}

// StaticCallee resolves the call's target to a module function, or nil
// when the target is dynamic (interface method, function value) or
// outside the module.
func (m *Module) StaticCallee(info *types.Info, call *ast.CallExpr) *FuncInfo {
	if fn := calleeFunc(info, call); fn != nil {
		return m.funcs[fn]
	}
	return nil
}
