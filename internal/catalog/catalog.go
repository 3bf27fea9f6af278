// Package catalog generates the synthetic application and service-instance
// population used by the QSA evaluation (§4.1):
//
//   - 10 distributed applications with abstract service paths of 2–5 hops;
//   - per abstract service, 10–20 service instances with randomly assigned
//     Qin, Qout and R parameters;
//   - per instance, 40–80 provider peers;
//   - per request, a session duration of 1–60 minutes and a user QoS
//     requirement with three levels (high / average / low).
//
// The paper never executes real services — only their QoS specifications
// and resource footprints matter — so the catalog is the faithful stand-in
// for "real player, windows media player, …" style instance diversity.
//
// QoS structure. Every instance carries two dimensions: a symbolic
// "format" (single-value parameter: exact match required, like the paper's
// data-format example) and a numeric "rate" range (like the paper's frame
// rate). An instance accepts input with rate in [0, cap] and produces rate
// [lo, hi]; the QCS edge condition Qout(A) ⊑ Qin(B) therefore requires
// format equality and hi_A ≤ cap_B. Resource and bandwidth footprints grow
// with the produced rate, so "better" instances are more expensive — the
// tension that makes resource-shortest composition meaningful.
package catalog

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/xrand"
)

// Config parameterizes catalog generation. The zero value is replaced by
// the paper's defaults (Default).
type Config struct {
	Seed uint64

	Apps             int // number of distributed applications (paper: 10)
	MinHops, MaxHops int // abstract path length range (paper: 2–5)

	MinInstances, MaxInstances int // instances per service (paper: 10–20)
	MinProviders, MaxProviders int // provider peers per instance (paper: 40–80)

	Formats []string // symbolic format alphabet

	// Output rate model: Qout.rate = [lo, lo+width], lo ∈ [MinRate,
	// MaxRateLo], width ∈ [0, MaxRateWidth]; Qin cap ∈ [MinCap, MaxCap].
	MinRate, MaxRateLo, MaxRateWidth float64
	MinCap, MaxCap                   float64

	// Resource model: R = RBase + RPerRate·midRate on both dimensions;
	// OutKbps = BandwidthPerRate·midRate.
	RBase, RPerRate  float64
	BandwidthPerRate float64

	// Session durations are uniform in [MinDuration, MaxDuration] minutes
	// (paper: 1–60).
	MinDuration, MaxDuration float64
}

// Default returns the paper's evaluation configuration.
func Default(seed uint64) Config {
	return Config{
		Seed:         seed,
		Apps:         10,
		MinHops:      2,
		MaxHops:      5,
		MinInstances: 10,
		MaxInstances: 20,
		MinProviders: 40,
		MaxProviders: 80,
		Formats:      []string{"MPEG", "JPEG", "RAW"},
		MinRate:      5, MaxRateLo: 25, MaxRateWidth: 10,
		MinCap: 20, MaxCap: 40,
		RBase: 30, RPerRate: 3,
		BandwidthPerRate: 2,
		MinDuration:      1, MaxDuration: 60,
	}
}

// levelMinRate maps the user's QoS level to the minimum output rate the
// final component must guarantee (the level's whole meaning in §4.1).
func levelMinRate(l qos.Level) float64 {
	switch l {
	case qos.High:
		return 18
	case qos.Average:
		return 10
	default:
		return 0
	}
}

// Catalog is the generated application/service/instance population.
type Catalog struct {
	cfg       Config
	Apps      []*service.Application
	Instances map[service.Name][]*service.Instance
	order     []service.Name      // deterministic service iteration order
	all       []*service.Instance // every instance, services in generation order

	// userQoS holds one immutable requirement vector per QoS level, built
	// once at generation time. UserQoS hands out these shared vectors, so
	// two requests at the same level carry pointer-identical requirements —
	// which is what lets compose.Memo key user-satisfaction checks by
	// backing array instead of re-comparing vector contents.
	userQoS map[qos.Level]qos.Vector
}

// New generates a catalog from cfg. Generation is deterministic in
// cfg.Seed and independent of any other randomness consumer.
func New(cfg Config) (*Catalog, error) {
	d := Default(cfg.Seed)
	if cfg.Apps == 0 {
		cfg = d
	}
	if cfg.MinHops < 1 || cfg.MaxHops < cfg.MinHops {
		return nil, fmt.Errorf("catalog: bad hop range [%d, %d]", cfg.MinHops, cfg.MaxHops)
	}
	if cfg.MinInstances < 1 || cfg.MaxInstances < cfg.MinInstances {
		return nil, fmt.Errorf("catalog: bad instance range [%d, %d]", cfg.MinInstances, cfg.MaxInstances)
	}
	if len(cfg.Formats) == 0 {
		return nil, fmt.Errorf("catalog: no formats")
	}
	rng := xrand.New(cfg.Seed).SplitLabeled("catalog")
	c := &Catalog{
		cfg:       cfg,
		Instances: make(map[service.Name][]*service.Instance),
		userQoS:   make(map[qos.Level]qos.Vector, len(qos.Levels)),
	}
	for _, l := range qos.Levels {
		c.userQoS[l] = buildUserQoS(l)
	}
	for a := 0; a < cfg.Apps; a++ {
		hops := rng.IntRange(cfg.MinHops, cfg.MaxHops)
		app := &service.Application{ID: fmt.Sprintf("app%d", a)}
		for h := 0; h < hops; h++ {
			name := service.Name(fmt.Sprintf("app%d/svc%d", a, h))
			app.Path = append(app.Path, name)
			c.genInstances(rng, name)
		}
		if err := app.Validate(); err != nil {
			return nil, err
		}
		c.Apps = append(c.Apps, app)
	}
	return c, nil
}

func (c *Catalog) genInstances(rng *xrand.Source, name service.Name) {
	k := rng.IntRange(c.cfg.MinInstances, c.cfg.MaxInstances)
	insts := make([]*service.Instance, 0, k)
	for i := 0; i < k; i++ {
		lo := rng.FloatRange(c.cfg.MinRate, c.cfg.MaxRateLo)
		hi := lo + rng.FloatRange(0, c.cfg.MaxRateWidth)
		cap := rng.FloatRange(c.cfg.MinCap, c.cfg.MaxCap)
		mid := (lo + hi) / 2
		r := c.cfg.RBase + c.cfg.RPerRate*mid
		inst := &service.Instance{
			ID:      fmt.Sprintf("%s#%d", name, i),
			Service: name,
			Qin: qos.MustVector(
				qos.Sym("format", c.cfg.Formats[rng.Intn(len(c.cfg.Formats))]),
				qos.Range("rate", 0, cap),
			),
			Qout: qos.MustVector(
				qos.Sym("format", c.cfg.Formats[rng.Intn(len(c.cfg.Formats))]),
				qos.Range("rate", lo, hi),
			),
			R:       []float64{r, r},
			OutKbps: c.cfg.BandwidthPerRate * mid,
		}
		insts = append(insts, inst)
	}
	c.Instances[name] = insts
	c.order = append(c.order, name)
	c.all = append(c.all, insts...)
}

// ServiceNames returns all abstract service names in generation order.
func (c *Catalog) ServiceNames() []service.Name {
	out := make([]service.Name, len(c.order))
	copy(out, c.order)
	return out
}

// AllInstances returns every instance in deterministic order: services in
// generation order, each service's instances in theirs. The slice is built
// once at generation and shared by every caller — treat it as read-only.
func (c *Catalog) AllInstances() []*service.Instance { return c.all }

// InstancesOf returns the instances of one abstract service.
func (c *Catalog) InstancesOf(name service.Name) []*service.Instance {
	return c.Instances[name]
}

// ProviderCount draws the number of provider peers for one instance
// (paper: uniform 40–80, clamped to the population size).
func (c *Catalog) ProviderCount(rng *xrand.Source, population int) int {
	n := rng.IntRange(c.cfg.MinProviders, c.cfg.MaxProviders)
	if n > population {
		n = population
	}
	return n
}

// buildUserQoS constructs the sink-side requirement vector for one level.
func buildUserQoS(level qos.Level) qos.Vector {
	return qos.MustVector(
		qos.Range("rate", levelMinRate(level), 1e9),
	)
}

// UserQoS returns the sink-side QoS requirement for a request: the final
// component must sustain a rate no lower than the level's minimum. The
// user side is format-agnostic (the user-side player consumes whatever the
// final component emits); format consistency constrains the edges BETWEEN
// components, where the satisfy relation's symbolic-equality case bites.
//
// The returned vector is shared per level and must be treated as
// immutable — all requests at a level alias one backing array, making the
// vector a pointer-identity memo key downstream.
func (c *Catalog) UserQoS(rng *xrand.Source, level qos.Level) qos.Vector {
	if v, ok := c.userQoS[level]; ok {
		return v
	}
	return buildUserQoS(level)
}

// SampleRequest draws one user request: a uniform application, a uniform
// QoS level, a uniform session duration in [MinDuration, MaxDuration].
func (c *Catalog) SampleRequest(rng *xrand.Source) *service.Request {
	app := c.Apps[rng.Intn(len(c.Apps))]
	level := qos.Levels[rng.Intn(len(qos.Levels))]
	return &service.Request{
		App:      app,
		Level:    level,
		UserQoS:  c.UserQoS(rng, level),
		Duration: rng.FloatRange(c.cfg.MinDuration, c.cfg.MaxDuration),
	}
}

// Config returns the generation configuration.
func (c *Catalog) Config() Config { return c.cfg }
