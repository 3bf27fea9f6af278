// Command qsalint runs the repo's own static-analysis pass (package
// internal/analysis) over the module: vet-style diagnostics with
// file:line positions, exit status 1 when anything is found.
//
// Usage:
//
//	qsalint [-list] [-run name,name] [-json] [dir]
//
// dir defaults to the current directory; the module containing it is
// linted as a whole (package patterns like ./... are accepted and mean
// the same thing). -list prints the analyzers and exits. -run restricts
// the run to a comma-separated analyzer selection. -json emits the
// diagnostics as a JSON array on stdout (exit status semantics
// unchanged), for CI artifacts and tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

// jsonDiag is the machine-readable diagnostic shape emitted by -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qsalint [-list] [-run name,name] [-json] [dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		var err error
		analyzers, err = analysis.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qsalint:", err)
			os.Exit(2)
		}
	}

	dir := "."
	if arg := flag.Arg(0); arg != "" {
		// Accept go-style patterns: "./..." or "repro/..." just mean the
		// whole module.
		dir = strings.TrimSuffix(arg, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" || strings.Contains(dir, "...") {
			dir = "."
		}
	}
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsalint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsalint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "qsalint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qsalint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
