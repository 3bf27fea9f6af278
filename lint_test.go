package qsa

import (
	"testing"

	"repro/internal/analysis"
)

// TestLintClean runs the full qsalint analyzer suite over this module and
// fails on any diagnostic, so `go test ./...` is also the lint gate. The
// same check is available standalone as `go run ./cmd/qsalint ./...`,
// which is ci.sh's lint step; the short suite leaves it to that step.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("ci.sh runs go run ./cmd/qsalint ./... as its lint step")
	}
	pkgs, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range analysis.Run(pkgs, analysis.All()) {
		t.Errorf("%s", d)
	}
}
