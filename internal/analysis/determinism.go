package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismExempt lists internal packages allowed to touch the wall
// clock: the network prototype talks to a real network on real time, the
// fault plane injects real latency into real TCP dials (its *decisions*
// are still pure functions of the seed — see package faults), the
// open-loop load generator paces real arrivals against the wall clock
// by definition (its schedules and mixes are still pure functions of
// the seed — see package load), and this analysis package is not part
// of any simulation path.
var determinismExempt = map[string]bool{
	"netproto": true,
	"faults":   true,
	"analysis": true,
	"load":     true,
}

// forbiddenTimeFuncs are the time-package functions that inject
// wall-clock nondeterminism into a simulation. Simulation code must use
// the eventsim virtual clock instead.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// Determinism forbids math/rand and wall-clock time in simulation
// packages: every figure of the paper regenerates bit-for-bit from one
// seed, which holds only while all randomness flows through
// internal/xrand and all time through the eventsim clock.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand and wall-clock time in internal simulation packages",
	Run:  runDeterminism,
}

// determinismApplies reports whether the import path is a simulation
// package covered by the rule.
func determinismApplies(importPath string) bool {
	rest, ok := cutInternal(importPath)
	if !ok {
		return false
	}
	top, _, _ := strings.Cut(rest, "/")
	return !determinismExempt[top]
}

// cutInternal splits ".../internal/<rest>" out of an import path.
func cutInternal(importPath string) (rest string, ok bool) {
	const marker = "/internal/"
	if i := strings.Index(importPath, marker); i >= 0 {
		return importPath[i+len(marker):], true
	}
	return "", false
}

func runDeterminism(pass *Pass) {
	if !determinismApplies(pass.Pkg.ImportPath) {
		return
	}
	for _, f := range pass.Pkg.Files {
		// Alias tracking: `import mrand "math/rand"` must not evade the
		// check, and a package named time that is not the stdlib time
		// must not trip it.
		timeNames := map[string]bool{}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch path {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "simulation package imports %s; derive randomness from internal/xrand so runs replay bit-for-bit", path)
			case "time":
				name := "time"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				timeNames[name] = true
			}
		}
		if len(timeNames) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !timeNames[id.Name] || !forbiddenTimeFuncs[sel.Sel.Name] {
				return true
			}
			// Confirm the identifier really is the time package, not a
			// local variable shadowing the import.
			if pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); !ok || pn.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(), "simulation package calls time.%s; use the eventsim virtual clock so runs replay bit-for-bit", sel.Sel.Name)
			return true
		})
	}
}
