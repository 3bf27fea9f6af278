// Command qsaexp regenerates the figures of the QSA paper's evaluation
// (Gu & Nahrstedt, HPDC 2002, §4) and this repository's ablation studies.
//
// Each figure is printed as an aligned text table, one column per
// algorithm (qsa / random / fixed), matching the corresponding plot:
//
//	Fig. 5 — average ψ vs request rate (no churn)
//	Fig. 6 — ψ fluctuation over time at 200 req/min (no churn)
//	Fig. 7 — average ψ vs topological variation rate
//	Fig. 8 — ψ fluctuation under churn (100 peers/min)
//
// Scales:
//
//	-scale paper   the paper's full setup (10⁴ peers, 400-min Fig. 5 runs);
//	               budget tens of minutes of CPU
//	-scale quick   a laptop-quick variant preserving the curve shapes
//
// Examples:
//
//	qsaexp -fig 5 -scale quick
//	qsaexp -fig all -scale paper -seed 7
//	qsaexp -ablation all -scale quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 5, 6, 7, 8 or all")
		ablation = flag.String("ablation", "", "ablation to run: tiers, uptime, probe, recovery, retry or all")
		scale    = flag.String("scale", "quick", "experiment scale: quick or paper")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		workers  = flag.Int("workers", 0, "parallel simulation runs (0 = GOMAXPROCS)")
		svgDir   = flag.String("svg", "", "also render each figure as an SVG into this directory")
		csvDir   = flag.String("csv", "", "also write each figure's data as CSV into this directory")
		repeats  = flag.Int("repeats", 1, "replicas per curve cell (mean±sd across seeds)")
		scal     = flag.Bool("scalability", false, "run the grid-size scalability sweep")
		shards   = flag.Int("shards", 0, "> 0 draws each request of every run from its own random stream (results identical for every value > 0)")
	)
	flag.Parse()
	if *fig == "" && *ablation == "" && !*scal {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -fig and/or -ablation (see -h)")
		os.Exit(2)
	}

	var s experiments.Scale
	switch *scale {
	case "paper":
		s = experiments.PaperScale(*seed)
	case "quick":
		s = experiments.QuickScale(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	s.Workers = *workers
	s.Repeats = *repeats
	s.Shards = *shards

	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	saveSVG := func(name string, render func(w *os.File) error) {
		if *svgDir == "" {
			return
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			die(err)
		}
		f, err := os.Create(filepath.Join(*svgDir, name))
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := render(f); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.Name())
	}
	saveCSV := func(name string, render func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			die(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := render(f); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.Name())
	}
	runFig := func(which string) {
		switch which {
		case "5":
			c, err := experiments.Fig5(s)
			if err != nil {
				die(err)
			}
			experiments.WriteCurve(os.Stdout, c)
			saveSVG("fig5.svg", func(f *os.File) error { return c.Chart().SVG(f) })
			saveCSV("fig5.csv", func(f *os.File) error { return experiments.WriteCurveCSV(f, c) })
		case "6":
			set, err := experiments.Fig6(s)
			if err != nil {
				die(err)
			}
			experiments.WriteSeries(os.Stdout, set)
			saveSVG("fig6.svg", func(f *os.File) error { return set.Chart().SVG(f) })
			saveCSV("fig6.csv", func(f *os.File) error { return experiments.WriteSeriesCSV(f, set) })
		case "7":
			c, err := experiments.Fig7(s)
			if err != nil {
				die(err)
			}
			experiments.WriteCurve(os.Stdout, c)
			saveSVG("fig7.svg", func(f *os.File) error { return c.Chart().SVG(f) })
			saveCSV("fig7.csv", func(f *os.File) error { return experiments.WriteCurveCSV(f, c) })
		case "8":
			set, err := experiments.Fig8(s)
			if err != nil {
				die(err)
			}
			experiments.WriteSeries(os.Stdout, set)
			saveSVG("fig8.svg", func(f *os.File) error { return set.Chart().SVG(f) })
			saveCSV("fig8.csv", func(f *os.File) error { return experiments.WriteSeriesCSV(f, set) })
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", which)
			os.Exit(2)
		}
		fmt.Println()
	}
	runAblation := func(which string) {
		switch which {
		case "tiers":
			c, err := experiments.AblationTiers(s)
			if err != nil {
				die(err)
			}
			experiments.WriteCurve(os.Stdout, c)
		case "uptime":
			c, err := experiments.AblationUptime(s)
			if err != nil {
				die(err)
			}
			fmt.Println("Ablation A3: uptime-aware selection under churn")
			fmt.Printf("%-28s%14s%14s\n", "churn (peers/min)", "with uptime", "without")
			for i := range c.Churn {
				fmt.Printf("%-28g%13.1f%%%13.1f%%\n", c.Churn[i], 100*c.WithUptime[i], 100*c.WithoutUptime[i])
			}
		case "probe":
			c, err := experiments.AblationProbeBudget(s, nil)
			if err != nil {
				die(err)
			}
			fmt.Println("Ablation A4: probing budget M")
			fmt.Printf("%-28s%14s%14s\n", "M (neighbors)", "ψ", "fallbacks")
			for i := range c.M {
				fmt.Printf("%-28d%13.1f%%%14d\n", c.M[i], 100*c.Psi[i], c.Fallbacks[i])
			}
		case "retry":
			c, err := experiments.AblationRetries(s)
			if err != nil {
				die(err)
			}
			fmt.Println("Ablation A6: recomposition retry vs single shot")
			fmt.Printf("%-28s%14s%14s\n", "request rate (req/min)", "with retry", "single shot")
			for i := range c.Rate {
				fmt.Printf("%-28g%13.1f%%%13.1f%%\n", c.Rate[i], 100*c.WithRetry[i], 100*c.SingleShot[i])
			}
		case "recovery":
			c, err := experiments.AblationRecovery(s)
			if err != nil {
				die(err)
			}
			fmt.Println("Ablation A5: runtime session recovery under churn")
			fmt.Printf("%-28s%14s%14s%14s\n", "churn (peers/min)", "no recovery", "recovery", "repairs")
			for i := range c.Churn {
				fmt.Printf("%-28g%13.1f%%%13.1f%%%14d\n",
					c.Churn[i], 100*c.WithoutRecovery[i], 100*c.WithRecovery[i], c.Recoveries[i])
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q\n", which)
			os.Exit(2)
		}
		fmt.Println()
	}

	switch *fig {
	case "":
	case "all":
		for _, f := range []string{"5", "6", "7", "8"} {
			runFig(f)
		}
	default:
		runFig(*fig)
	}
	if *scal {
		c, err := experiments.Scalability(s, nil)
		if err != nil {
			die(err)
		}
		fmt.Println("Scalability: grid size sweep (constant per-peer load)")
		fmt.Printf("%-10s%12s%14s%18s\n", "peers", "psi", "chord hops", "probes/request")
		for i := range c.N {
			fmt.Printf("%-10d%11.1f%%%14.2f%18.1f\n",
				c.N[i], 100*c.Psi[i], c.ChordHops[i], c.ProbesPerRequest[i])
		}
		fmt.Println()
	}
	switch *ablation {
	case "":
	case "all":
		for _, a := range []string{"tiers", "uptime", "probe", "recovery", "retry"} {
			runAblation(a)
		}
	default:
		runAblation(*ablation)
	}
}
