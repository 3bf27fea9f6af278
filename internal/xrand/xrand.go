// Package xrand provides a small, fast, deterministic random number
// generator used throughout the QSA simulator.
//
// Every run of the simulator derives all of its randomness from a single
// user-provided seed, which makes experiments reproducible bit-for-bit.
// The generator is splitmix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), chosen because it is
// splittable: independent child streams can be derived for sub-systems
// (catalog generation, churn, workload, per-peer jitter) so that changing
// how much randomness one sub-system consumes does not perturb the others.
package xrand

import "math"

// Source is a deterministic pseudo-random source. The zero value is a valid
// source seeded with 0; prefer New to make seeding explicit.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden gamma, the splitmix64 increment.
const gamma = 0x9E3779B97F4A7C15

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return Mix64(s.state)
}

// Mix64 is the splitmix64 finalizer: a bijective mixing function on 64-bit
// integers. It is exported because the topology package uses it to derive
// stable pairwise link properties without storing an O(N²) matrix.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// MixString absorbs s into the hash state h byte-wise, closing with a
// length-keyed finalizer so field boundaries are unambiguous:
// MixString(MixString(h,"ab"),"c") differs from
// MixString(MixString(h,"a"),"bc"). It is the stateless companion of
// SplitLabeled, used where per-(label, counter) values must be derived
// without allocating a Source — e.g. per-link fault verdicts and
// per-target retry jitter in the network prototype.
func MixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = Mix64(h ^ uint64(s[i]))
	}
	return Mix64(h ^ uint64(len(s))*gamma)
}

// MixIndex derives an independent value from hash state h and a counter
// i, keyed so consecutive indices land far apart. It is the numeric
// companion of MixString: the simulator's per-request streams use it to
// give every request its own self-contained random stream seeded by
// (run salt, request index).
func MixIndex(h, i uint64) uint64 {
	return Mix64(h ^ Mix64((i+1)*gamma))
}

// Split derives an independent child source. The child's stream is
// statistically independent of the parent's subsequent output.
func (s *Source) Split() *Source {
	return &Source{state: Mix64(s.Uint64())}
}

// SplitLabeled derives an independent child source whose stream depends on
// both the parent seed and the label, without consuming parent state. Use
// it to give stable per-subsystem streams.
func (s *Source) SplitLabeled(label string) *Source {
	h := s.state
	for i := 0; i < len(label); i++ {
		h = Mix64(h ^ uint64(label[i])*gamma)
	}
	return &Source{state: Mix64(h)}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		// lint:allow panic-in-library mirrors the documented math/rand Intn contract
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// modulo bias is negligible for n << 2^63 and determinism is what we
	// actually care about.
	return int(s.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		// lint:allow panic-in-library mirrors the documented math/rand-style bounds contract
		panic("xrand: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// FloatRange returns a uniform value in [lo, hi).
func (s *Source) FloatRange(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		// lint:allow panic-in-library mirrors the documented math/rand-style parameter contract
		panic("xrand: Exp with non-positive rate")
	}
	u := s.Float64()
	// Guard against log(0): Float64 is in [0,1), so 1-u is in (0,1].
	return -math.Log(1-u) / rate
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; adequate for
		// workload generation where mean is a request count per tick.
		n := int(math.Round(mean + math.Sqrt(mean)*s.Norm()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Norm returns a standard normally distributed value (Box-Muller).
func (s *Source) Norm() float64 {
	u1 := 1 - s.Float64() // in (0,1]
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// PermInto fills dst with a pseudo-random permutation of [0, n), growing
// it only when its capacity is insufficient, and returns it.
func (s *Source) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		j := s.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// Pick returns a uniformly chosen index in [0, n), or -1 when n == 0.
func (s *Source) Pick(n int) int {
	if n == 0 {
		return -1
	}
	return s.Intn(n)
}
