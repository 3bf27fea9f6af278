package analysis

import (
	"go/ast"
	"go/types"
)

// PanicInLibrary flags panic() calls in library packages (anything that
// is not package main). Library code returns errors; a panic in the
// simulator tears down a whole multi-hour experiment batch instead of
// failing one request. Sites that assert genuinely unreachable internal
// invariants — corrupted reservation accounting, exhaustive switches —
// carry a `// lint:allow panic-in-library <reason>` annotation instead of
// being converted, keeping the distinction deliberate and auditable.
var PanicInLibrary = &Analyzer{
	Name: "panic-in-library",
	Doc:  "flag panic() in non-main packages without a lint:allow justification",
	Run:  runPanicInLibrary,
}

func runPanicInLibrary(pass *Pass) {
	if pass.Pkg.Name == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			// The builtin, not a local function named panic.
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			pass.Reportf(call.Pos(), "panic in library package; return an error, or annotate an invariant with lint:allow panic-in-library")
			return true
		})
	}
}
