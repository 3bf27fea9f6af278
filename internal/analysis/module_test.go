package analysis

import (
	"path/filepath"
	"testing"
)

// loadTemp materializes a module with writeModule and loads it.
func loadTemp(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	dir := writeModule(t, files)
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	return pkgs
}

// findFunc locates a FuncInfo by its diagnostic name ("lib.Ping").
func findFunc(t *testing.T, mod *Module, pkgs []*Package, name string) *FuncInfo {
	t.Helper()
	for _, pkg := range pkgs {
		for _, fi := range mod.Funcs(pkg) {
			if fi.Name() == name {
				return fi
			}
		}
	}
	t.Fatalf("function %s not found in module", name)
	return nil
}

func calls(from, to *FuncInfo) bool {
	for _, c := range from.Callees() {
		if c == to {
			return true
		}
	}
	return false
}

// TestCallGraphMutualRecursion checks that call resolution records both
// directions of a call cycle, and that the blocking fixpoint over it
// terminates.
func TestCallGraphMutualRecursion(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"go.mod": "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go": `package lib

func Ping(n int) {
	if n > 0 {
		Pong(n - 1)
	}
}

func Pong(n int) {
	if n > 0 {
		Ping(n - 1)
	}
}
`,
	})
	mod := NewModule(pkgs)
	ping := findFunc(t, mod, pkgs, "lib.Ping")
	pong := findFunc(t, mod, pkgs, "lib.Pong")
	if !calls(ping, pong) {
		t.Errorf("Ping -> Pong edge missing: %v", ping.Callees())
	}
	if !calls(pong, ping) {
		t.Errorf("Pong -> Ping edge missing: %v", pong.Callees())
	}
	if r := blockReasons(mod); r[ping] != "" || r[pong] != "" {
		t.Errorf("a pure call cycle does not block: %v", r)
	}
}

// TestCallGraphMethodValueAndGoEdges checks what counts as a call: a
// direct method call does; a method used as a value, the callee of a go
// statement and a call inside a function literal run on another schedule
// and do not.
func TestCallGraphMethodValueAndGoEdges(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"go.mod": "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go": `package lib

type T struct{}

func (T) M() {}

func Worker() {}

func Later() {}

func Use(t T) {
	f := t.M
	f()
	go Worker()
	defer func() { Later() }()
}

func Direct(t T) {
	t.M()
}
`,
	})
	mod := NewModule(pkgs)
	use := findFunc(t, mod, pkgs, "lib.Use")
	direct := findFunc(t, mod, pkgs, "lib.Direct")
	m := findFunc(t, mod, pkgs, "lib.(T).M")
	if len(use.Callees()) != 0 {
		t.Errorf("method value, go callee and closure call must not be edges: %v", use.Callees())
	}
	if !calls(direct, m) {
		t.Errorf("Direct -> T.M call edge missing: %v", direct.Callees())
	}
}

// TestLoadSkipsTestFiles checks that _test.go files never reach the
// analyzers: an in-package test file is not parsed into its package, and
// a directory holding only test files is no package at all.
func TestLoadSkipsTestFiles(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"go.mod":          "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go":      "package lib\n\nfunc Add(a, b int) int { return a + b }\n",
		"lib/lib_test.go": "package lib\n\nfunc broken() { panic(undefined) }\n",
		"only/x_test.go":  "package only_test\n",
	})
	if len(pkgs) != 1 || pkgs[0].ImportPath != "tmpfix/lib" || len(pkgs[0].Files) != 1 {
		t.Fatalf("want only tmpfix/lib with one file, got %v", pkgs)
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		t.Errorf("want no diagnostics, got %v", diags)
	}
}

// TestModulePathErrors checks the failure modes of go.mod parsing.
func TestModulePathErrors(t *testing.T) {
	if _, err := ModulePath(t.TempDir()); err == nil {
		t.Error("missing go.mod must error")
	}
	dir := writeModule(t, map[string]string{"go.mod": "go 1.24\n"})
	if _, err := ModulePath(dir); err == nil {
		t.Error("go.mod without a module line must error")
	}
}

// TestByName checks CLI analyzer selection: valid comma lists resolve,
// unknown or empty selections error.
func TestByName(t *testing.T) {
	as, err := ByName("lockorder, determinism")
	if err != nil {
		t.Fatalf("valid selection: %v", err)
	}
	if len(as) != 2 || as[0].Name != "lockorder" || as[1].Name != "determinism" {
		t.Errorf("want [lockorder determinism], got %v", as)
	}
	if _, err := ByName("no-such-analyzer"); err == nil {
		t.Error("unknown analyzer must error")
	}
	if _, err := ByName(" , "); err == nil {
		t.Error("empty selection must error")
	}
}

// TestRenderers pins the human-readable forms used in diagnostics.
func TestRenderers(t *testing.T) {
	d := Diagnostic{Analyzer: "lockorder", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got := d.String(); got != "x.go:3:7: [lockorder] boom" {
		t.Errorf("Diagnostic.String() = %q", got)
	}
	for class, want := range map[string]string{
		"repro/internal/registry.Registry.mu": "registry.Registry.mu",
		"repro/internal/lib:n.mu":             "lib:n.mu",
	} {
		if got := shortClass(class); got != want {
			t.Errorf("shortClass(%q) = %q, want %q", class, got, want)
		}
	}
}

// TestFindModuleRoot checks go.mod discovery from a nested directory
// and the error when no module encloses the path.
func TestFindModuleRoot(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go": "package lib\n",
	})
	root, err := FindModuleRoot(filepath.Join(dir, "lib"))
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	if root != dir {
		t.Errorf("root = %q, want %q", root, dir)
	}
	if _, err := FindModuleRoot("/proc/self"); err == nil {
		t.Error("module-less path must error")
	}
}
