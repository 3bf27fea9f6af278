package chord

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestPropertyRoutingUnderChurn drives rings of 10³ and 10⁴ nodes (10⁵
// without -short) through ten minutes of lookups from random alive nodes
// to random keys, with and without 1 %/min churn — half joins at random
// ids, half abrupt failures, as the simulator's churn model splits it —
// over 20 seeds. Routing state is maintained only by the protocol's own
// mechanisms: notify on join and the traffic-driven refresh. It asserts:
//
//   - every lookup returns the ground-truth owner;
//   - mean hops ≤ 1.5 × ½·log₂N, and no lookup falls back to the linear
//     successor walk;
//   - after each join, the first alive successor-list entry of each of the
//     joiner's r predecessors is its ground-truth successor;
//   - owner-walk hops are under 1 % of all hops.
func TestPropertyRoutingUnderChurn(t *testing.T) {
	sizes := []int{1_000, 10_000}
	if !testing.Short() {
		sizes = append(sizes, 100_000)
	}
	const (
		seeds          = 20
		minutes        = 10
		lookupsPerMin  = 1_000
		churnPerMinute = 0.01
	)
	for _, n := range sizes {
		for _, churn := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/churn=%v", n, churn), func(t *testing.T) {
				bound := 1.5 * 0.5 * math.Log2(float64(n))
				var worst float64
				for seed := uint64(1); seed <= seeds; seed++ {
					s := churnRun(t, seed, n, churn, minutes, lookupsPerMin, churnPerMinute)
					if s.Fallbacks != 0 {
						t.Fatalf("seed %d: %d lookups fell back to the successor walk", seed, s.Fallbacks)
					}
					if mean := s.MeanHops(); mean > bound {
						t.Fatalf("seed %d: mean hops %.3f > 1.5 × ½·log₂N = %.3f", seed, mean, bound)
					} else {
						worst = max(worst, mean)
					}
					if s.OwnerWalkHops*100 >= s.TotalHops {
						t.Fatalf("seed %d: %d of %d hops were owner-walk hops", seed, s.OwnerWalkHops, s.TotalHops)
					}
				}
				t.Logf("worst mean hops over %d seeds %.3f (bound %.3f)", seeds, worst, bound)
			})
		}
	}
}

// churnRun is one seed of TestPropertyRoutingUnderChurn; it returns the
// ring's routing statistics.
func churnRun(t *testing.T, seed uint64, n int, churn bool, minutes, lookupsPerMin int, churnPerMinute float64) Stats {
	t.Helper()
	rng := xrand.New(seed)
	r := NewRing(Config{})
	alive, err := r.JoinBulk(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if churn {
		events = int(churnPerMinute * float64(n))
	}
	for m := 0; m < minutes; m++ {
		// Each step is a lookup or, with probability events/(events+lookups),
		// a membership change: joins and failures alternate.
		joins, fails := events/2, events-events/2
		for steps := lookupsPerMin + events; steps > 0; steps-- {
			if rng.Intn(steps) < joins+fails {
				if joins > 0 && (fails == 0 || rng.Bool(0.5)) {
					joins--
					nd, err := r.JoinRandom(rng)
					if err != nil {
						t.Fatal(err)
					}
					alive = append(alive, nd)
					checkPredecessorsKnow(t, r, nd)
				} else {
					fails--
					j := rng.Intn(len(alive))
					if err := r.Fail(alive[j]); err != nil {
						t.Fatal(err)
					}
					alive[j] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				}
				continue
			}
			key := rng.Uint64()
			got, _, err := r.Lookup(alive[rng.Intn(len(alive))], key)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.Owner(key); got != want {
				t.Fatalf("seed %d: lookup(%d) = node %d, ground truth %d", seed, key, got.id, want.id)
			}
		}
	}
	return r.Stats()
}

// checkPredecessorsKnow asserts that each of the joiner's r predecessors
// would route to its ground-truth successor next.
func checkPredecessorsKnow(t *testing.T, r *Ring, joiner *Node) {
	t.Helper()
	p := joiner
	for range min(r.cfg.SuccessorListLen, r.Size()-1) {
		p = r.predecessorOf(p.id)
		if want := r.successorOf(p.id, true); r.firstAliveSuccessor(p) != want {
			t.Fatalf("after join of %d: predecessor %d does not route to its ground-truth successor %d", joiner.id, p.id, want.id)
		}
	}
}
