// Package analysis is the repo's own static-analysis pass: a small,
// zero-dependency (standard library only) framework plus the analyzers
// that mechanize the invariants the QSA reproduction's correctness rests
// on but the Go compiler cannot see:
//
//   - determinism: simulation packages derive all randomness from
//     internal/xrand and all time from the simulated clock — wall-clock
//     and math/rand calls silently break bit-for-bit reproducibility;
//   - panic-in-library: library packages return errors, they do not
//     panic, unless a site is annotated as a genuine invariant;
//   - unchecked-error: error results of this repo's own APIs must be
//     consumed or explicitly discarded;
//   - lockorder: no mutex acquisition cycle across the module, and no
//     lock held across a channel operation or a call that blocks.
//
// Diagnostics can be suppressed per line with a justification comment:
//
//	// lint:allow <analyzer-name> <one-line reason>
//
// placed on the offending line or the line directly above it. A
// suppression without a reason is itself reported. The cmd/qsalint CLI
// runs every analyzer over the module; lint_test.go at the repo root
// makes `go test ./...` fail on any finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// comments.
	Name string
	// Doc is a one-line description of what the analyzer enforces.
	Doc string
	// Run inspects the package behind pass and reports violations.
	Run func(pass *Pass)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders "file:line:col: [name] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Mod is the shared whole-module call graph; every pass of one Run
	// sees the same instance, so lockorder computes its facts once.
	Mod *Module

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless a lint:allow comment
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression is one parsed lint:allow comment.
type suppression struct {
	analyzer string
	file     string
	line     int
	used     bool
}

// allowPrefix starts a suppression comment.
const allowPrefix = "lint:allow"

// parseSuppressions collects lint:allow comments from a parsed file.
// Malformed suppressions (no analyzer name or no reason) are returned as
// bad so the framework can report them instead of silently ignoring.
func parseSuppressions(fset *token.FileSet, f *ast.File) (ok []*suppression, bad []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			if !strings.HasPrefix(text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			if name == "" || strings.TrimSpace(reason) == "" {
				bad = append(bad, Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  "lint:allow needs an analyzer name and a one-line justification",
				})
				continue
			}
			ok = append(ok, &suppression{analyzer: name, file: pos.Filename, line: pos.Line})
		}
	}
	return ok, bad
}

// suppressed reports whether a diagnostic from the named analyzer at pos
// is covered by a lint:allow comment on the same line or the line above.
func (pkg *Package) suppressed(analyzer string, pos token.Position) bool {
	for _, s := range pkg.suppressions {
		if s.analyzer != analyzer || s.file != pos.Filename {
			continue
		}
		if s.line == pos.Line || s.line == pos.Line-1 {
			s.used = true
			return true
		}
	}
	return false
}

// All returns the repo's analyzers in reporting order: the three
// per-package checks, then lockorder over the shared call graph.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		PanicInLibrary,
		UncheckedError,
		LockOrder,
	}
}

// ByName resolves a comma-separated analyzer selection against All();
// unknown names are an error.
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty analyzer selection %q", names)
	}
	return out, nil
}

// Run applies the given analyzers to every package and returns the
// surviving diagnostics sorted by position. Suppressions that are
// unused, malformed or name no analyzer are reported too, so they cannot
// outlive the violation or the check they excuse.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	mod := NewModule(pkgs)
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Mod:      mod,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
		}
		diags = append(diags, pkg.badSuppressions...)
		for _, s := range pkg.suppressions {
			msg := fmt.Sprintf("unused lint:allow %s suppression (nothing to suppress here)", s.analyzer)
			if _, err := ByName(s.analyzer); err != nil {
				msg = fmt.Sprintf("suppression names no analyzer: %q", s.analyzer)
			} else if s.used || !active[s.analyzer] {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
				Analyzer: "lint",
				Message:  msg,
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}
