package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked module package.
type Package struct {
	// ImportPath is the package's import path, e.g. "repro/internal/qos".
	ImportPath string
	// Module is the path of the module the package belongs to.
	Module string
	// Dir is the package's directory on disk.
	Dir string
	// Name is the package name from the source ("main" for commands).
	Name string

	Fset  *token.FileSet
	Files []*ast.File // non-test files, parsed with comments

	Types *types.Package
	Info  *types.Info

	imports         []string // repo-internal imports, for topo ordering
	suppressions    []*suppression
	badSuppressions []Diagnostic
}

// ModulePath reads the module path from the go.mod at root.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every package of the module rooted at
// root. Test files (_test.go) are excluded: the analyzers enforce library
// invariants, and tests legitimately use wall-clock timeouts and panics.
// No library file carries a build constraint, so every .go file of a
// directory belongs to its package. Standard-library imports are
// type-checked from GOROOT source, so the loader works with a pure go.mod
// (zero external dependencies) and no installed export data.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	byPath := make(map[string]*Package)
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pkg, err := parseDir(fset, root, modPath, path)
		if err != nil || pkg == nil {
			return err
		}
		byPath[pkg.ImportPath] = pkg
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}

	ordered, err := topoSort(pkgs, byPath)
	if err != nil {
		return nil, err
	}
	if err := typeCheck(fset, ordered, byPath); err != nil {
		return nil, err
	}
	return ordered, nil
}

// parseDir parses one directory's non-test files into a package, nil
// when it has none.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{ImportPath: importPath, Module: modPath, Dir: dir, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Name = f.Name.Name
		sup, bad := parseSuppressions(fset, f)
		pkg.suppressions = append(pkg.suppressions, sup...)
		pkg.badSuppressions = append(pkg.badSuppressions, bad...)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				pkg.imports = append(pkg.imports, path)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// topoSort orders packages so every repo-internal dependency precedes its
// importers.
func topoSort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current path
		black = 2 // done
	)
	state := make(map[*Package]int, len(pkgs))
	ordered := make([]*Package, 0, len(pkgs))
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analysis: import cycle through %s", p.ImportPath)
		}
		state[p] = gray
		for _, dep := range p.imports {
			if d, ok := byPath[dep]; ok && d != p {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p] = black
		ordered = append(ordered, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// moduleImporter resolves repo-internal imports from the already-checked
// set and delegates everything else (the standard library) to a
// source-level importer rooted at GOROOT.
type moduleImporter struct {
	std  types.Importer
	repo map[string]*Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.repo[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s imported before it was checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over the packages in dependency order, sharing
// one standard-library importer so GOROOT sources are checked once.
func typeCheck(fset *token.FileSet, ordered []*Package, byPath map[string]*Package) error {
	imp := &moduleImporter{
		std:  importer.ForCompiler(fset, "source", nil),
		repo: byPath,
	}
	for _, pkg := range ordered {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Files, info)
		if err != nil {
			return fmt.Errorf("analysis: type-checking %s: %w", pkg.ImportPath, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
	}
	return nil
}
