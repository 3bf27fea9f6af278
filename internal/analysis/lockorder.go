package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the module's one mutex check. It identifies every
// sync.(RW)Mutex by class — the named struct field or package-level
// variable that owns it — and walks every function in source order,
// tracking the held set (branches merge by intersection: a lock counts
// as held after a branch only when every non-terminating path holds
// it; a deferred Unlock keeps it held to the end of the function;
// goroutine and closure bodies start with nothing held). Two shapes are
// reported:
//
//   - acquisition cycles (A held while locking B somewhere, B held
//     while locking A somewhere else, directly or through any chain of
//     static calls);
//   - a blocking operation while a lock is held: a channel send,
//     receive, select or range, a known-blocking stdlib call
//     (WaitGroup.Wait, time.Sleep, net dials and conn I/O), a dynamic
//     Dial on a transport interface, or a static call to any module
//     function that transitively does one of those. In the network
//     prototype every RPC can take seconds; holding the peer mutex
//     across one serializes the node.
//
// Classes are instance-insensitive: two different values of one struct
// type share a class, so self-edges (locking two sessions in sequence)
// are deliberately not reported.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag cyclic mutex acquisition orders and locks held across blocking operations",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	mod := pass.Mod
	mod.lockOnce.Do(func() { mod.lockDiags = computeLockOrder(mod) })
	for _, d := range mod.lockDiags[pass.Pkg] {
		pass.Reportf(d.pos, "%s", d.msg)
	}
}

// lockMethods classifies sync.(RW)Mutex methods into acquisitions and
// releases. TryLock variants never block and acquire only conditionally;
// they are ignored (a false-negative trade for zero false positives).
var lockMethods = map[string]int{
	"Lock":    +1,
	"RLock":   +1,
	"Unlock":  -1,
	"RUnlock": -1,
}

// syncBlockingMethods are sync/net methods that park the goroutine.
var syncBlockingMethods = map[string]map[string]bool{
	"sync": {"Wait": true}, // WaitGroup.Wait, Cond.Wait
	"net":  {"Accept": true, "Read": true, "Write": true},
}

// blockingPkgFuncs are package-level stdlib functions that park the
// goroutine.
var blockingPkgFuncs = map[string]map[string]bool{
	"time": {"Sleep": true},
	"net":  {"Dial": true, "DialTimeout": true, "DialIP": true, "DialTCP": true, "DialUDP": true},
}

// dialMethods are RPC-shaped interface methods: a dynamic call to one
// of these while a mutex is held serializes the node on the network.
var dialMethods = map[string]bool{"Dial": true, "DialTimeout": true}

// mutexClassOf names the lock behind the receiver expression of a
// Lock/Unlock call: "pkgpath.Type.field" for struct-owned mutexes,
// "pkgpath.var" for package-level ones, and a function-local fallback
// otherwise.
func mutexClassOf(info *types.Info, pkgPath string, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return pkgPath + ":" + types.ExprString(x)
}

// shortClass renders a class for diagnostics: the import path shrinks
// to its base ("registry.Registry.mu").
func shortClass(class string) string {
	head, rest, ok := strings.Cut(class, ":")
	if i := strings.LastIndex(head, "/"); i >= 0 {
		head = head[i+1:]
	}
	if ok {
		return head + ":" + rest
	}
	return head
}

// lockClassCall classifies call as a sync.(RW)Mutex acquisition or
// release, returning the mutex class and +1/-1.
func lockClassCall(info *types.Info, pkgPath string, call *ast.CallExpr) (class string, delta int, ok bool) {
	fun, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	d, named := lockMethods[fun.Sel.Name]
	if !named {
		return "", 0, false
	}
	sel, isMethod := info.Selections[fun]
	if !isMethod {
		return "", 0, false
	}
	m, isFunc := sel.Obj().(*types.Func)
	if !isFunc || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", 0, false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", 0, false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return mutexClassOf(info, pkgPath, fun.X), d, true
	}
	return "", 0, false
}

// blocksDirectly says why node n parks the goroutine by itself ("" when
// it does not): a channel operation, a known-blocking stdlib call, or a
// dynamic transport dial. Calls into the module are resolved by the
// blocking fixpoint, not here.
func blocksDirectly(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "sends on a channel"
	case *ast.SelectStmt:
		return "selects on channels"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "receives from a channel"
		}
	case *ast.RangeStmt:
		if t := info.Types[n.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "ranges over a channel"
			}
		}
	case *ast.CallExpr:
		fun, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if sel, ok := info.Selections[fun]; ok {
			mfn, ok := sel.Obj().(*types.Func)
			if !ok {
				return ""
			}
			if pkg := mfn.Pkg(); pkg != nil && syncBlockingMethods[pkg.Name()][mfn.Name()] {
				return "calls " + pkg.Name() + "." + mfn.Name()
			}
			// A dynamic dial: the Transport interface, or anything
			// shaped like it.
			if types.IsInterface(sel.Recv()) && dialMethods[mfn.Name()] {
				return "dials the transport"
			}
			return ""
		}
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && blockingPkgFuncs[pn.Imported().Path()][fun.Sel.Name] {
				return "calls " + pn.Imported().Name() + "." + fun.Sel.Name
			}
		}
	}
	return ""
}

// blockReasons computes, to a fixpoint over the call graph, why each
// module function blocks ("" when it does not): a direct reason in its
// own body outside function literals and go statements, or a callee
// that blocks.
func blockReasons(mod *Module) map[*FuncInfo]string {
	blocking := make(map[*FuncInfo]string)
	for _, pkg := range mod.Pkgs {
		for _, fi := range mod.Funcs(pkg) {
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				}
				if blocking[fi] == "" {
					blocking[fi] = blocksDirectly(pkg.Info, n)
				}
				return blocking[fi] == ""
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pkg := range mod.Pkgs {
			for _, fi := range mod.Funcs(pkg) {
				if blocking[fi] != "" {
					continue
				}
				for _, callee := range fi.Callees() {
					if r := blocking[callee]; r != "" {
						blocking[fi] = "calls " + callee.Name() + ", which " + r
						changed = true
						break
					}
				}
			}
		}
	}
	return blocking
}

// lockAcquires computes, to a fixpoint, every mutex class each function
// may acquire, directly or through static calls.
func lockAcquires(mod *Module) map[*FuncInfo]map[string]bool {
	acquires := make(map[*FuncInfo]map[string]bool)
	add := func(fi *FuncInfo, class string) bool {
		set := acquires[fi]
		if set == nil {
			set = make(map[string]bool)
			acquires[fi] = set
		}
		if set[class] {
			return false
		}
		set[class] = true
		return true
	}
	for _, pkg := range mod.Pkgs {
		for _, fi := range mod.Funcs(pkg) {
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if class, delta, ok := lockClassCall(pkg.Info, pkg.ImportPath, call); ok && delta > 0 {
						add(fi, class)
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pkg := range mod.Pkgs {
			for _, fi := range mod.Funcs(pkg) {
				for _, callee := range fi.Callees() {
					for class := range acquires[callee] {
						if add(fi, class) {
							changed = true
						}
					}
				}
			}
		}
	}
	return acquires
}

// lockEdge is one observed acquisition ordering: to was locked (or
// reachable-locked) while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	via      string // "" for a direct lock, callee name otherwise
}

// computeLockOrder walks every function with held-set tracking, records
// the acquisition graph and emits cycle plus held-across-blocking
// diagnostics.
func computeLockOrder(mod *Module) map[*Package][]pending {
	diags := make(map[*Package][]pending)
	blocking := blockReasons(mod)
	acquires := lockAcquires(mod)

	edges := make(map[string]map[string]lockEdge)
	addEdge := func(e lockEdge) {
		if e.from == e.to {
			return // instance-insensitive classes: self-order is legal
		}
		m := edges[e.from]
		if m == nil {
			m = make(map[string]lockEdge)
			edges[e.from] = m
		}
		if prev, ok := m[e.to]; !ok || e.pos < prev.pos {
			m[e.to] = e
		}
	}

	for _, pkg := range mod.Pkgs {
		heldAcross := func(pos token.Pos, what string, held map[string]bool) {
			diags[pkg] = append(diags[pkg], pending{
				pos: pos,
				msg: fmt.Sprintf("%s while %s is held; release the mutex before blocking", what, shortClass(sortedKeys(held)[0])),
			})
		}
		for _, fi := range mod.Funcs(pkg) {
			w := &lockWalker{
				info:    pkg.Info,
				pkgPath: pkg.ImportPath,
				onLock: func(class string, pos token.Pos, held map[string]bool) {
					for from := range held {
						addEdge(lockEdge{from: from, to: class, pos: pos, pkg: pkg})
					}
				},
				onOp: func(n ast.Node, held map[string]bool) {
					if len(held) == 0 {
						return
					}
					if r := blocksDirectly(pkg.Info, n); r != "" {
						heldAcross(n.Pos(), r, held)
						return
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					callee := mod.StaticCallee(pkg.Info, call)
					if callee == nil {
						return
					}
					for from := range held {
						for to := range acquires[callee] {
							addEdge(lockEdge{from: from, to: to, pos: call.Pos(), pkg: pkg, via: callee.Name()})
						}
					}
					if r := blocking[callee]; r != "" {
						heldAcross(call.Pos(), "calls "+callee.Name()+", which "+r+",", held)
					}
				},
			}
			w.stmts(fi.Decl.Body.List, map[string]bool{})
		}
	}

	// Cycle detection over the class graph: any edge whose endpoints
	// reach each other participates in a deadlock-capable order.
	for _, from := range sortedKeys(edges) {
		for _, to := range sortedKeys(edges[from]) {
			if !classReaches(edges, to, from) {
				continue
			}
			e := edges[from][to]
			diags[e.pkg] = append(diags[e.pkg], pending{
				pos: e.pos,
				msg: lockCycleMessage(e),
			})
		}
	}
	return diags
}

func lockCycleMessage(e lockEdge) string {
	via := ""
	if e.via != "" {
		via = " (via " + e.via + ")"
	}
	return fmt.Sprintf("lock order cycle: %s acquired%s while %s is held, and elsewhere %s is acquired while %s is held; pick one global order",
		shortClass(e.to), via, shortClass(e.from), shortClass(e.from), shortClass(e.to))
}

// classReaches reports whether from reaches to in the acquisition graph.
func classReaches(edges map[string]map[string]lockEdge, from, to string) bool {
	seen := map[string]bool{}
	var dfs func(c string) bool
	dfs = func(c string) bool {
		if c == to {
			return true
		}
		if seen[c] {
			return false
		}
		seen[c] = true
		for next := range edges[c] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockWalker tracks the held-mutex class set through a function body in
// source order. onLock sees every acquisition with the set held before
// it; onOp sees every other call and every channel operation.
type lockWalker struct {
	info    *types.Info
	pkgPath string
	onLock  func(class string, pos token.Pos, held map[string]bool)
	onOp    func(n ast.Node, held map[string]bool)
}

func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) map[string]bool {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) map[string]bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if class, delta, ok := lockClassCall(w.info, w.pkgPath, call); ok {
				if delta > 0 {
					w.onLock(class, call.Pos(), held)
					held[class] = true
				} else {
					delete(held, class)
				}
				return held
			}
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held for the rest of the
		// function; a deferred blocking call runs after the body.
		if class, delta, ok := lockClassCall(w.info, w.pkgPath, s.Call); ok && delta > 0 {
			w.onLock(class, s.Call.Pos(), held)
			held[class] = true
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[string]bool{})
		}
	case *ast.SendStmt:
		w.onOp(s, held)
		w.scanExpr(s.Value, held)
	case *ast.SelectStmt:
		w.onOp(s, held)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.stmts(cc.Body, copySet(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		bodyOut := w.stmts(s.Body.List, copySet(held))
		var elseOut map[string]bool
		if s.Else != nil {
			elseOut = w.stmt(s.Else, copySet(held))
		} else {
			elseOut = held
		}
		return mergeBranches(held,
			branch{out: bodyOut, terminates: terminates(s.Body.List)},
			branch{out: elseOut, terminates: s.Else != nil && stmtTerminates(s.Else)})
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		return w.stmts(s.Body.List, held)
	case *ast.RangeStmt:
		w.onOp(s, held)
		w.scanExpr(s.X, held)
		return w.stmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copySet(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copySet(held))
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return held
}

// scanExpr visits calls and receives inside an expression; function
// literal bodies run on another schedule, so they start with nothing
// held.
func (w *lockWalker) scanExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, map[string]bool{})
			return false
		case *ast.UnaryExpr:
			w.onOp(n, held)
		case *ast.CallExpr:
			if _, _, isLock := lockClassCall(w.info, w.pkgPath, n); !isLock {
				w.onOp(n, held)
			}
		}
		return true
	})
}

type branch struct {
	out        map[string]bool
	terminates bool
}

// mergeBranches intersects the held sets of the branches that fall
// through; if every branch terminates, the pre-branch state continues.
func mergeBranches(pre map[string]bool, branches ...branch) map[string]bool {
	var live []map[string]bool
	for _, b := range branches {
		if !b.terminates {
			live = append(live, b.out)
		}
	}
	if len(live) == 0 {
		return pre
	}
	merged := copySet(live[0])
	for key := range merged {
		for _, other := range live[1:] {
			if !other[key] {
				delete(merged, key)
				break
			}
		}
	}
	return merged
}

// terminates reports whether a statement list ends in a control transfer.
func terminates(list []ast.Stmt) bool {
	return len(list) > 0 && stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}
