package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches expectation markers in fixture sources:
//
//	n.ch <- 1 // want lockorder
//
// The marker names every analyzer expected to fire on that line.
var wantRe = regexp.MustCompile(`//\s*want\s+([a-z-]+(?:\s+[a-z-]+)*)\s*$`)

// collectWants scans fixture .go files for want markers and returns the
// expected analyzer names keyed by "file:line".
func collectWants(t *testing.T, root string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, line)
			wants[key] = append(wants[key], strings.Fields(m[1])...)
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixture: %v", err)
	}
	return wants
}

// TestAnalyzersOnFixture runs every analyzer over the lintfix fixture
// module and requires the diagnostics to match the want markers exactly:
// one positive and one negative case per analyzer live in the fixture.
func TestAnalyzersOnFixture(t *testing.T) {
	root := filepath.Join("testdata", "src", "lintfix")
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	wants := collectWants(t, root)
	got := make(map[string][]string)
	for _, d := range Run(pkgs, All()) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		got[key] = append(got[key], d.Analyzer)
	}
	for key, names := range wants {
		sort.Strings(names)
		g := append([]string(nil), got[key]...)
		sort.Strings(g)
		if strings.Join(names, " ") != strings.Join(g, " ") {
			t.Errorf("%s: want analyzers %v, got %v", key, names, g)
		}
	}
	for key, names := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostics %v", key, names)
		}
	}
}

// writeModule materializes a throwaway module for loader-level tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestUnusedSuppression checks that a lint:allow comment with nothing to
// suppress is itself reported, and so is one naming a retired analyzer,
// so stale suppressions cannot accumulate.
func TestUnusedSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go": `package lib

// lint:allow determinism nothing nondeterministic happens here
func Add(a, b int) int { return a + b }

// lint:allow hotalloc a check that no longer runs
func Sub(a, b int) int { return a - b }
`,
	})
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	diags := Run(pkgs, All())
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 diagnostics, got %d: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "lint" || !strings.Contains(diags[0].Message, "unused") {
		t.Errorf("want unused-suppression report, got %s", diags[0])
	}
	if diags[1].Analyzer != "lint" || !strings.Contains(diags[1].Message, `names no analyzer: "hotalloc"`) {
		t.Errorf("want retired-analyzer report, got %s", diags[1])
	}
}

// TestMalformedSuppression checks that lint:allow without a justification
// is rejected rather than silently honored.
func TestMalformedSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go": `package lib

// lint:allow panic-in-library
func Boom() { panic("boom") }
`,
	})
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	diags := Run(pkgs, All())
	var sawBad, sawPanic bool
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "justification") {
			sawBad = true
		}
		if d.Analyzer == "panic-in-library" {
			sawPanic = true
		}
	}
	if !sawBad {
		t.Errorf("want a malformed-suppression report, got %v", diags)
	}
	if !sawPanic {
		t.Errorf("malformed suppression must not suppress; got %v", diags)
	}
}

// TestSuppressionOnSameLine checks the trailing-comment suppression form.
func TestSuppressionOnSameLine(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpfix\n\ngo 1.24\n",
		"lib/lib.go": `package lib

func Boom() {
	panic("boom") // lint:allow panic-in-library documented invariant
}
`,
	})
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		t.Errorf("want no diagnostics, got %v", diags)
	}
}
