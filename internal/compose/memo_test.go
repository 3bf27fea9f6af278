package compose

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/xrand"
)

func TestMemoMatchesDirectEvaluation(t *testing.T) {
	m := NewMemo()
	a := inst("a", "X", "M", 1, 1)
	b := inst("b", "M", "A", 1, 1)
	for i := 0; i < 3; i++ {
		if m.CanFeed(a, b) != a.CanFeed(b) {
			t.Fatal("memoized CanFeed disagrees with direct evaluation")
		}
		if m.CanFeed(b, a) != b.CanFeed(a) {
			t.Fatal("memoized CanFeed disagrees on the false case")
		}
		if m.SatisfiesUser(b, userA) != qos.Satisfies(b.Qout, userA) {
			t.Fatal("memoized SatisfiesUser disagrees with direct evaluation")
		}
		if m.SatisfiesUser(a, userA) != qos.Satisfies(a.Qout, userA) {
			t.Fatal("memoized SatisfiesUser disagrees on the false case")
		}
	}
}

func TestMemoNilSafe(t *testing.T) {
	var m *Memo
	a := inst("a", "X", "M", 1, 1)
	b := inst("b", "M", "A", 1, 1)
	if !m.CanFeed(a, b) || m.CanFeed(b, a) {
		t.Fatal("nil memo must delegate CanFeed")
	}
	if !m.SatisfiesUser(b, userA) || m.SatisfiesUser(a, userA) {
		t.Fatal("nil memo must delegate SatisfiesUser")
	}
}

func TestMemoCountsHitsAndMisses(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMemo()
	m.Obs = obs.NewMemoCounters(reg)
	a := inst("a", "X", "M", 1, 1)
	b := inst("b", "M", "A", 1, 1)
	m.CanFeed(a, b)
	m.CanFeed(a, b)
	m.CanFeed(a, b)
	if h, ms := m.Obs.FeedHits.Value(), m.Obs.FeedMisses.Value(); h != 2 || ms != 1 {
		t.Fatalf("feed hits/misses = %d/%d, want 2/1", h, ms)
	}
	m.SatisfiesUser(b, userA)
	m.SatisfiesUser(b, userA)
	if h, ms := m.Obs.UserHits.Value(), m.Obs.UserMisses.Value(); h != 1 || ms != 1 {
		t.Fatalf("user hits/misses = %d/%d, want 1/1", h, ms)
	}
}

func TestMemoUserMapCapped(t *testing.T) {
	m := NewMemo()
	keep := make([]qos.Vector, 0, maxUserMemo+10)
	in := inst("a", "X", "A", 1, 1)
	for i := 0; i < maxUserMemo+10; i++ {
		v := qos.MustVector(qos.Sym("format", "A"))
		keep = append(keep, v)
		if !m.SatisfiesUser(in, v) {
			t.Fatal("satisfied check reported false")
		}
	}
	if len(m.user) > maxUserMemo {
		t.Fatalf("user memo grew to %d, cap is %d", len(m.user), maxUserMemo)
	}
	_ = keep
}

// memoLayers is a three-hop fixture where the lexically-first candidates
// at the final and middle layers are dead ends, forcing both baseline
// composers to backtrack across layers before finding the unique
// consistent path a2 -> b2 -> c2.
func memoLayers() [][]*service.Instance {
	return [][]*service.Instance{
		{
			inst("a1", "X", "K", 1, 1), // feeds only the dead b1
			inst("a2", "X", "M", 2, 2),
		},
		{
			inst("b1", "K", "A", 1, 1), // fed only by a1, feeds nobody's chain
			inst("b2", "M", "N", 2, 2),
		},
		{
			inst("c1", "Q", "A", 1, 1), // satisfies the user but cannot be fed
			inst("c2", "N", "A", 2, 2),
		},
	}
}

func TestFixedBacktracksAcrossLayers(t *testing.T) {
	layers := memoLayers()
	p, err := Fixed(layers, userA, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a2", "b2", "c2"}
	for i, in := range p.Instances {
		if in.ID != want[i] {
			t.Fatalf("fixed path[%d] = %s, want %s", i, in.ID, want[i])
		}
	}
	if !Consistent(p.Instances, userA) {
		t.Fatal("fixed path must satisfy Consistent")
	}
}

func TestBacktrackingNoPath(t *testing.T) {
	// Remove the only consistent chain's tail: every composer must report
	// ErrNoConsistentPath, memoized or not.
	layers := memoLayers()
	layers[2] = layers[2][:1] // only the unfeedable c1 remains
	cfg := Config{Memo: NewMemo(), Scratch: NewScratch()}
	for name, run := range map[string]func() error{
		"qcs":    func() error { _, err := QCS(layers, userA, cfg); return err },
		"random": func() error { _, err := Random(layers, userA, xrand.New(1), cfg); return err },
		"fixed":  func() error { _, err := Fixed(layers, userA, cfg); return err },
	} {
		if err := run(); err != ErrNoConsistentPath {
			t.Fatalf("%s: err = %v, want ErrNoConsistentPath", name, err)
		}
	}
}

func TestMemoizedComposersMatchPlain(t *testing.T) {
	// Same fixture, same seeds: the memo+scratch pipeline must produce
	// exactly the paths of the buffer-free pipeline, for all three
	// composers, across repeated runs that alternate graph shapes (so the
	// scratch is exercised at several high-water marks).
	memo := NewMemo()
	scratch := NewScratch()
	fast := Config{Memo: memo, Scratch: scratch}
	plain := Config{}
	rngFast, rngPlain := xrand.New(99), xrand.New(99)

	small := memoLayers()
	big := memoLayers()
	big[1] = append([]*service.Instance{inst("b0", "M", "N", 9, 9)}, big[1]...)

	for round := 0; round < 6; round++ {
		layers := small
		if round%2 == 1 {
			layers = big
		}
		for name, pair := range map[string][2]func() (*Path, error){
			"qcs": {
				func() (*Path, error) { return QCS(layers, userA, fast) },
				func() (*Path, error) { return QCS(layers, userA, plain) },
			},
			"random": {
				func() (*Path, error) { return Random(layers, userA, rngFast, fast) },
				func() (*Path, error) { return Random(layers, userA, rngPlain, plain) },
			},
			"fixed": {
				func() (*Path, error) { return Fixed(layers, userA, fast) },
				func() (*Path, error) { return Fixed(layers, userA, plain) },
			},
		} {
			a, errA := pair[0]()
			b, errB := pair[1]()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s round %d: error mismatch %v vs %v", name, round, errA, errB)
			}
			if errA != nil {
				continue
			}
			if fmt.Sprint(pathIDs(a)) != fmt.Sprint(pathIDs(b)) || a.Cost != b.Cost {
				t.Fatalf("%s round %d: %v (%v) vs %v (%v)", name, round, pathIDs(a), a.Cost, pathIDs(b), b.Cost)
			}
			if !Consistent(a.Instances, userA) {
				t.Fatalf("%s round %d: inconsistent path", name, round)
			}
		}
	}
}

func pathIDs(p *Path) []string {
	ids := make([]string, len(p.Instances))
	for i, in := range p.Instances {
		ids[i] = in.ID
	}
	return ids
}

// mapMemo is the reference model of the memo: outcomes in maps keyed by
// the instance pointers (and, for the user check, the vector's backing
// array), as the memo was first written, with its own hit and miss
// counts.
type mapMemo struct {
	feed                 map[[2]*service.Instance]bool
	user                 map[userKey]bool
	feedHits, feedMisses uint64
	userHits, userMisses uint64
}

func (m *mapMemo) canFeed(a, b *service.Instance) bool {
	k := [2]*service.Instance{a, b}
	if v, ok := m.feed[k]; ok {
		m.feedHits++
		return v
	}
	m.feedMisses++
	m.feed[k] = a.CanFeed(b)
	return m.feed[k]
}

func (m *mapMemo) satisfiesUser(in *service.Instance, u qos.Vector) bool {
	k := userKey{inst: in, p0: &u[0], n: len(u)}
	if v, ok := m.user[k]; ok {
		m.userHits++
		return v
	}
	m.userMisses++
	v := qos.Satisfies(in.Qout, u)
	if len(m.user) < maxUserMemo {
		m.user[k] = v
	}
	return v
}

// TestMemoMatchesMapReference drives the memo and the map reference
// through one random sequence of checks over a generated catalog's
// instances: CanFeed on random pairs, the dense-index path QCS takes
// with both indexes fetched beforehand, and SatisfiesUser against the
// catalog's shared per-level vectors. Every outcome and all four
// counters must agree after every check.
func TestMemoMatchesMapReference(t *testing.T) {
	cat, err := catalog.New(catalog.Default(3))
	if err != nil {
		t.Fatal(err)
	}
	all := cat.AllInstances()
	var users []qos.Vector
	for _, l := range qos.Levels {
		users = append(users, cat.UserQoS(nil, l))
	}
	m := NewMemo()
	m.Obs = obs.NewMemoCounters(obs.NewRegistry())
	ref := &mapMemo{feed: make(map[[2]*service.Instance]bool), user: make(map[userKey]bool)}
	rng := xrand.New(11)
	pool := all[:len(all)/3] // a third of the instances, so pairs repeat
	for step := 0; step < 20000; step++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		var got, want bool
		switch rng.Intn(3) {
		case 0:
			got, want = m.CanFeed(a, b), ref.canFeed(a, b)
		case 1:
			ia, ib := m.id(a), m.id(b)
			got, want = m.feeds(a, ia, b, ib), ref.canFeed(a, b)
		case 2:
			u := users[rng.Intn(len(users))]
			got, want = m.SatisfiesUser(a, u), ref.satisfiesUser(a, u)
		}
		if got != want {
			t.Fatalf("step %d: memo says %v, reference %v", step, got, want)
		}
		if m.Obs.FeedHits.Value() != ref.feedHits || m.Obs.FeedMisses.Value() != ref.feedMisses ||
			m.Obs.UserHits.Value() != ref.userHits || m.Obs.UserMisses.Value() != ref.userMisses {
			t.Fatalf("step %d: counters feed %d/%d user %d/%d, reference %d/%d %d/%d", step,
				m.Obs.FeedHits.Value(), m.Obs.FeedMisses.Value(), m.Obs.UserHits.Value(), m.Obs.UserMisses.Value(),
				ref.feedHits, ref.feedMisses, ref.userHits, ref.userMisses)
		}
	}
	yes := 0
	for _, v := range ref.feed {
		if v {
			yes++
		}
	}
	if yes == 0 || yes == len(ref.feed) || ref.feedHits == 0 {
		t.Fatalf("%d of %d pairs feed, %d hits: an outcome went untested", yes, len(ref.feed), ref.feedHits)
	}
}

// TestMemoHitAllocs pins a memo hit at zero allocations, on CanFeed, on
// the dense-index path QCS takes and on SatisfiesUser.
func TestMemoHitAllocs(t *testing.T) {
	m := NewMemo()
	m.Obs = obs.NewMemoCounters(obs.NewRegistry())
	a := inst("a", "X", "M", 1, 1)
	b := inst("b", "M", "A", 1, 1)
	m.CanFeed(a, b)
	m.SatisfiesUser(b, userA)
	ia, ib := m.id(a), m.id(b)
	avg := testing.AllocsPerRun(200, func() {
		m.CanFeed(a, b)
		m.feeds(a, ia, b, ib)
		m.SatisfiesUser(b, userA)
	})
	if avg != 0 {
		t.Fatalf("memo hits allocate %.1f/op, want 0", avg)
	}
	if h := m.Obs.FeedHits.Value(); h != 2*201 {
		t.Fatalf("feed hits = %d, want %d", h, 2*201)
	}
}
