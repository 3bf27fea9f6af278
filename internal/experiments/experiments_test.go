package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// skipIfShort skips the multi-second statistical replays under -short so
// `go test -race -short ./...` stays fast; TestFig5SmokeShort keeps
// end-to-end (and race) coverage of the harness in short mode.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("statistical replay; run without -short")
	}
}

// TestFig5SmokeShort is the -short stand-in for the Tiny suite: one Fig5
// point at toy scale, fanned out across workers so the race detector still
// sees the concurrent experiment harness.
func TestFig5SmokeShort(t *testing.T) {
	s := Scale{
		Seed:         1,
		Peers:        120,
		Fig5Rates:    []float64{15},
		Fig5Duration: 4,
		Fig6Rate:     10,
		Fig6Duration: 4,
		SampleWindow: 2,
		Fig7Churn:    []float64{0},
		Fig7Rate:     10,
		Fig7Duration: 4,
		Fig8Churn:    10,
		Fig8Rate:     10,
		Fig8Duration: 4,
		Workers:      8,
	}
	c, err := Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 1 {
		t.Fatalf("points = %d", len(c.Points))
	}
	for _, alg := range sim.Algorithms {
		v := c.Points[0].Psi[alg]
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("ψ(%v) = %v", alg, v)
		}
		if c.Points[0].Results[alg] == nil {
			t.Fatalf("missing result for %v", alg)
		}
	}
}

// tinyScale keeps the integration tests fast while still running every
// subsystem end to end.
func tinyScale(seed uint64) Scale {
	return Scale{
		Seed:         seed,
		Peers:        400,
		Fig5Rates:    []float64{5, 30},
		Fig5Duration: 10,
		Fig6Rate:     20,
		Fig6Duration: 12,
		SampleWindow: 2,
		Fig7Churn:    []float64{0, 20},
		Fig7Rate:     10,
		Fig7Duration: 10,
		Fig8Churn:    20,
		Fig8Rate:     10,
		Fig8Duration: 10,
	}
}

func TestFig5ShapeTiny(t *testing.T) {
	skipIfShort(t)
	c, err := Fig5(tinyScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 2 {
		t.Fatalf("points = %d", len(c.Points))
	}
	for _, pt := range c.Points {
		for _, alg := range sim.Algorithms {
			v := pt.Psi[alg]
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("ψ(%v)@%v = %v", alg, pt.X, v)
			}
			if pt.Results[alg] == nil || pt.Results[alg].Requests.Issued == 0 {
				t.Fatalf("missing result for %v@%v", alg, pt.X)
			}
		}
		// Fixed must trail QSA at every load point.
		if pt.Psi[sim.Fixed] >= pt.Psi[sim.QSA] {
			t.Fatalf("fixed %v >= qsa %v at rate %v", pt.Psi[sim.Fixed], pt.Psi[sim.QSA], pt.X)
		}
	}
}

func TestFig6SeriesTiny(t *testing.T) {
	skipIfShort(t)
	set, err := Fig6(tinyScale(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range sim.Algorithms {
		if len(set.Series[alg]) == 0 {
			t.Fatalf("no series for %v", alg)
		}
		if math.IsNaN(set.Overall[alg]) {
			t.Fatalf("no overall ψ for %v", alg)
		}
	}
}

func TestFig7ChurnHurtsTiny(t *testing.T) {
	skipIfShort(t)
	c, err := Fig7(tinyScale(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 2 {
		t.Fatalf("points = %d", len(c.Points))
	}
	noChurn := c.Points[0].Psi[sim.QSA]
	churn := c.Points[1].Psi[sim.QSA]
	if !(churn < noChurn) {
		t.Fatalf("churn did not degrade QSA: %v vs %v", churn, noChurn)
	}
}

func TestFig8Tiny(t *testing.T) {
	skipIfShort(t)
	set, err := Fig8(tinyScale(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Series[sim.QSA]) == 0 {
		t.Fatal("no QSA series")
	}
}

func TestAblationTiersTiny(t *testing.T) {
	skipIfShort(t)
	s := tinyScale(5)
	s.Fig5Rates = []float64{30}
	c, err := AblationTiers(s)
	if err != nil {
		t.Fatal(err)
	}
	pt := c.Points[0]
	for _, alg := range c.Algorithms {
		if math.IsNaN(pt.Psi[alg]) {
			t.Fatalf("no ψ for %v", alg)
		}
	}
	// Full QSA must beat fully random; each hybrid sits in between or at
	// least not above QSA by more than noise.
	if pt.Psi[sim.QSA] <= pt.Psi[sim.Random] {
		t.Fatalf("qsa %v <= random %v", pt.Psi[sim.QSA], pt.Psi[sim.Random])
	}
}

func TestAblationUptimeTiny(t *testing.T) {
	skipIfShort(t)
	s := tinyScale(6)
	s.Fig7Churn = []float64{25}
	c, err := AblationUptime(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.WithUptime) != 1 || len(c.WithoutUptime) != 1 {
		t.Fatalf("curve = %+v", c)
	}
}

func TestAblationProbeBudgetTiny(t *testing.T) {
	skipIfShort(t)
	c, err := AblationProbeBudget(tinyScale(7), []int{1, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.M) != 2 {
		t.Fatalf("budgets = %v", c.M)
	}
	// A starved probe budget must produce more random fallbacks.
	if c.Fallbacks[0] <= c.Fallbacks[1] {
		t.Fatalf("fallbacks = %v, starved budget should fall back more", c.Fallbacks)
	}
}

func TestAblationRecoveryTiny(t *testing.T) {
	skipIfShort(t)
	s := tinyScale(8)
	s.Fig7Churn = []float64{25}
	c, err := AblationRecovery(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recoveries[0] == 0 {
		t.Fatal("recovery never exercised under churn")
	}
	if !(c.WithRecovery[0] >= c.WithoutRecovery[0]) {
		t.Fatalf("recovery hurt ψ: %v vs %v", c.WithRecovery[0], c.WithoutRecovery[0])
	}
}

func TestWriteCurve(t *testing.T) {
	skipIfShort(t)
	c, err := Fig5(tinyScale(9))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteCurve(&b, c)
	out := b.String()
	for _, want := range []string{"Figure 5", "qsa", "random", "fixed", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 2+len(c.Points) {
		t.Fatalf("table has %d lines, want %d", lines, 2+len(c.Points))
	}
}

func TestWriteSeries(t *testing.T) {
	skipIfShort(t)
	set, err := Fig8(tinyScale(10))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteSeries(&b, set)
	out := b.String()
	if !strings.Contains(out, "time (min)") || !strings.Contains(out, "overall") {
		t.Fatalf("series table malformed:\n%s", out)
	}
}

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{PaperScale(1), QuickScale(1)} {
		if s.Peers <= 0 || len(s.Fig5Rates) == 0 || s.Fig5Duration <= 0 {
			t.Fatalf("degenerate scale %+v", s)
		}
		if s.Fig6Rate <= 0 || s.Fig7Rate <= 0 || s.Fig8Rate <= 0 {
			t.Fatalf("degenerate rates %+v", s)
		}
		if len(s.Fig7Churn) == 0 || s.Fig7Churn[0] != 0 {
			t.Fatalf("Fig7 sweep must start at zero churn: %+v", s.Fig7Churn)
		}
	}
	p := PaperScale(1)
	if p.Peers != 10000 || p.Fig5Duration != 400 || p.Fig6Rate != 200 ||
		p.Fig6Duration != 100 || p.SampleWindow != 2 || p.Fig8Churn != 100 {
		t.Fatalf("PaperScale deviates from §4.1: %+v", p)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	skipIfShort(t)
	// Parallelism must not leak into results: the same scale with 1 worker
	// and N workers must agree bit for bit.
	s1 := tinyScale(11)
	s1.Workers = 1
	sN := tinyScale(11)
	sN.Workers = 8
	a, err := Fig5(s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5(sN)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		for _, alg := range sim.Algorithms {
			if a.Points[i].Psi[alg] != b.Points[i].Psi[alg] {
				t.Fatalf("worker count changed results at point %d, %v", i, alg)
			}
		}
	}
}

func TestRepeatsAggregateMeanStd(t *testing.T) {
	skipIfShort(t)
	s := tinyScale(30)
	s.Fig5Rates = []float64{20}
	s.Repeats = 3
	c, err := Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	pt := c.Points[0]
	for _, alg := range sim.Algorithms {
		if math.IsNaN(pt.Psi[alg]) {
			t.Fatalf("no mean for %v", alg)
		}
		if _, ok := pt.PsiStd[alg]; !ok {
			t.Fatalf("no stdev for %v", alg)
		}
		if pt.PsiStd[alg] < 0 || pt.PsiStd[alg] > 0.5 {
			t.Fatalf("implausible stdev %v for %v", pt.PsiStd[alg], alg)
		}
	}
	// Distinct seeds must actually be used: across 3 replicas of a noisy
	// metric, at least one algorithm should show nonzero variance.
	someVar := false
	for _, alg := range sim.Algorithms {
		if pt.PsiStd[alg] > 0 {
			someVar = true
		}
	}
	if !someVar {
		t.Fatal("replicas appear identical; seeds not varied")
	}
	var b strings.Builder
	WriteCurve(&b, c)
	if !strings.Contains(b.String(), "±") {
		t.Fatal("table must show mean±sd with repeats")
	}
}

func TestScalabilityTiny(t *testing.T) {
	skipIfShort(t)
	s := tinyScale(31)
	c, err := Scalability(s, []int{200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.N) != 2 {
		t.Fatalf("sizes = %v", c.N)
	}
	for i := range c.N {
		if c.ChordHops[i] <= 0 {
			t.Fatalf("no hops measured at N=%d", c.N[i])
		}
		if c.ProbesPerRequest[i] <= 0 {
			t.Fatalf("no probing measured at N=%d", c.N[i])
		}
	}
	// Chord hops must grow slower than linearly with N (doubling N adds
	// about one hop).
	if c.ChordHops[1] > c.ChordHops[0]*1.8 {
		t.Fatalf("chord hops not logarithmic: %v", c.ChordHops)
	}
}
