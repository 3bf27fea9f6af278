package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureModuleFails exercises the CLI contract end to end: pointed
// at the violation fixture it must exit with status 1 and print file:line
// diagnostics for the planted violations.
func TestFixtureModuleFails(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "lintfix")
	cmd := exec.Command("go", "run", ".", fixture)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("want non-zero exit on fixture violations; stdout:\n%s", out.String())
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running qsalint: %v", err)
	}
	if code := exit.ExitCode(); code != 1 {
		t.Fatalf("want exit status 1 (findings), got %d; stderr:\n%s", code, stderr.String())
	}
	for _, frag := range []string{"simfix.go:", "[determinism]", "[panic-in-library]", "[unchecked-error]", "[lockorder]"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("diagnostics missing %q; stdout:\n%s", frag, out.String())
		}
	}
}
