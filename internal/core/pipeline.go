package core

import (
	"fmt"
	"slices"

	"repro/internal/compose"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/xrand"
)

// Grid is what one request's attempt loop runs over: the in-memory grid
// (Aggregator) or the prototype's RPC grid (netproto). It holds its
// request's state between the calls.
type Grid interface {
	// Discover validates the request and returns one layer of candidate
	// instances per path position; it may stop after an empty layer.
	Discover() ([][]*service.Instance, error)
	// Select picks one host per instance; sel is the selection stage
	// span's context, for remote legs to parent under.
	Select(path []*service.Instance, sel obs.SpanContext) error
	// Admit reserves path on the selected hosts; adm is the admission
	// stage span's context.
	Admit(path []*service.Instance, adm obs.SpanContext) error
	// Names renders the admitted session's ID and hosts for the
	// admission span; called only when tracing.
	Names() (session string, hosts []string)
	// Stage marks stage s beginning or ending. The loop reads no clock;
	// a grid that times its stages does it here.
	Stage(s Stage, begin bool)
}

// Pipeline is the attempt loop of the paper's §3.2 — discover, compose,
// select hop by hop, admit, and on a selection or admission failure
// exclude the failed path's instances and recompose — together with
// what one request needs besides its Grid. The loop owns the stage
// errors (*ErrAggregation) and the four stage spans, which carry the
// composed path, the attempt and the admitted session; grids emit only
// their own legs. A Pipeline runs one request at a time (the prototype
// builds one per call).
type Pipeline struct {
	Strategy Strategy
	Compose  compose.Config // Definition 3.1 weights, caches, counters
	RNG      *xrand.Source  // drives ComposeRandom
	// Spans mints request Req's stage spans under Root (the zero Root:
	// inert spans).
	Req   uint64
	Spans *obs.Spans
	Root  obs.SpanContext

	// retry alternates two layer buffers: attempt n+1's layers are
	// filtered from attempt n's, so one buffer would alias itself.
	retry [2][][]*service.Instance
}

// Run runs req through the pipeline over g and returns the admitted
// composition. Every failure is an *ErrAggregation carrying the stage
// of the final attempt.
func (pl *Pipeline) Run(g Grid, req *service.Request) (*compose.Path, error) {
	return pl.run(g, req, nil)
}

// run is Run, or with prep non-nil the loop's finish over a prepared
// discovery and first composition (AggregateFinish).
func (pl *Pipeline) run(g Grid, req *service.Request, prep *PreparedAggregation) (*compose.Path, error) {
	var layers [][]*service.Instance
	sp, err := pl.step(g, StageDiscovery, 0, func(obs.SpanContext) (err error) {
		if prep == nil {
			layers, err = discoverLayers(g, req)
		} else if err = prep.Err; err == nil {
			layers = prep.Disc.Layers
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sp.End(obs.Event{Stage: obs.StageDiscovery, OK: true})
	for attempt := 0; ; attempt++ {
		var path *compose.Path
		sp, err := pl.step(g, StageCompose, attempt, func(obs.SpanContext) (err error) {
			if attempt == 0 && prep != nil {
				path, err = prep.Path, prep.ComposeErr
			} else {
				path, err = pl.compose(layers, req.UserQoS)
			}
			return err
		})
		if err == nil {
			if sp.Active() {
				ids := make([]string, len(path.Instances))
				for i, in := range path.Instances {
					ids[i] = in.ID
				}
				sp.End(obs.Event{Stage: obs.StageCompose, Attempt: attempt, Path: ids, Cost: path.Cost, OK: true})
			}
			if err = pl.place(g, path, attempt); err == nil {
				return path, nil
			}
		}
		stage := StageOf(err)
		if stage != StageSelection && stage != StageAdmission || attempt >= pl.Strategy.Retries {
			return nil, err // compose failures cannot improve by retrying
		}
		// Exclude the failed path's instances and recompose over the rest.
		next := pl.retry[attempt%2]
		for len(next) < len(layers) {
			next = append(next, nil)
		}
		next = next[:len(layers)]
		for k := range layers {
			nk := next[k][:0]
			for _, in := range layers[k] {
				if in != path.Instances[k] {
					nk = append(nk, in)
				}
			}
			next[k] = nk
			if len(nk) == 0 {
				pl.retry[attempt%2] = next
				return nil, err // a layer ran out of candidates
			}
		}
		pl.retry[attempt%2] = next
		layers = next
	}
}

// discoverLayers runs g's discovery and checks that every layer has a
// candidate; each failure is a discovery-stage *ErrAggregation.
func discoverLayers(g Grid, req *service.Request) ([][]*service.Instance, error) {
	layers, err := g.Discover()
	if err != nil {
		return nil, &ErrAggregation{StageDiscovery, err}
	}
	for k, name := range req.App.Path {
		if k >= len(layers) || len(layers[k]) == 0 {
			return nil, &ErrAggregation{StageDiscovery, fmt.Errorf("no candidates for %q", name)}
		}
	}
	return layers, nil
}

// compose runs the strategy's composition algorithm over layers.
func (pl *Pipeline) compose(layers [][]*service.Instance, user qos.Vector) (*compose.Path, error) {
	switch pl.Strategy.Compose {
	case ComposeQCS:
		return compose.QCS(layers, user, pl.Compose)
	case ComposeRandom:
		return compose.Random(layers, user, pl.RNG, pl.Compose)
	case ComposeFixed:
		return compose.Fixed(layers, user, pl.Compose)
	}
	return nil, fmt.Errorf("unknown composer %d", pl.Strategy.Compose)
}

// place runs the selection and admission stages of an attempt over g.
func (pl *Pipeline) place(g Grid, path *compose.Path, attempt int) error {
	sp, err := pl.step(g, StageSelection, attempt, func(c obs.SpanContext) error { return g.Select(path.Instances, c) })
	if err != nil {
		return err
	}
	sp.End(obs.Event{Stage: obs.StageSelection, Attempt: attempt, OK: true})
	sp, err = pl.step(g, StageAdmission, attempt, func(c obs.SpanContext) error { return g.Admit(path.Instances, c) })
	if err != nil {
		return err
	}
	if sp.Active() {
		session, hosts := g.Names()
		sp.End(obs.Event{Stage: obs.StageAdmission, Attempt: attempt, OK: true, Session: session, Path: hosts})
	}
	return nil
}

// step runs op as stage s between g's boundary marks, under a new stage
// span that it ends with op's error; on success the caller ends it. An
// error is returned as a stage-s *ErrAggregation (discovery's already
// is one, and its span carries the wrapped text).
func (pl *Pipeline) step(g Grid, s Stage, attempt int, op func(obs.SpanContext) error) (obs.Span, error) {
	sp := pl.Spans.Join(pl.Root, pl.Req)
	g.Stage(s, true)
	err := op(sp.Context())
	g.Stage(s, false)
	if err == nil {
		return sp, nil
	}
	if sp.Active() {
		sp.End(obs.Event{Stage: s.String(), Attempt: attempt, Err: err.Error()})
	}
	if StageOf(err) == StageNone {
		err = &ErrAggregation{s, err}
	}
	return sp, err
}

// RecoveryGrid is a grid's side of the runtime-recovery step. H names a
// host: a topology.PeerID in memory, an address on the wire.
type RecoveryGrid[H comparable] interface {
	// Providers re-discovers inst's live providers, as host at sees
	// them; none when discovery fails.
	Providers(at H, inst *service.Instance) []H
	// Choose has host at select, among cands, a host for inst, the
	// session's component k, whose uptime covers remaining, and books it
	// wherever the grid books a recovered component. rec is the recovery
	// span's context, for a remote leg to parent under.
	Choose(at H, k int, inst *service.Instance, cands []H, remaining float64, rec obs.SpanContext) (H, bool)
}

// Recover is the runtime-recovery step (the paper's §6 future work) for
// component k of an admitted session, whose host hosts[k] died; user is
// the session's sink and remaining its time left, in the grid's unit.
// Selection keeps the paper's hop-by-hop rule (§3.2): the downstream
// neighbour — hosts[k+1], or the user for the last component —
// re-discovers the component's providers, drops the dead host, and
// selects among the rest one whose uptime covers the remaining time.
// The step owns the recovery span, a child of the session span sess.
func Recover[H comparable](g RecoveryGrid[H], user H, hosts []H, insts []*service.Instance,
	k int, remaining float64, sess obs.Span) (H, bool) {

	at := user
	if k < len(hosts)-1 {
		at = hosts[k+1]
	}
	sp := sess.Child()
	// Exclude the dead host whatever (possibly stale, within the probe
	// period) measurements still claim about it.
	live := slices.DeleteFunc(g.Providers(at, insts[k]), func(c H) bool { return c == hosts[k] })
	var chosen H
	ok := len(live) > 0
	if ok {
		chosen, ok = g.Choose(at, k, insts[k], live, remaining, sp.Context())
	}
	if sp.Active() {
		ev := obs.Event{Stage: obs.StageRecovery, Hop: k + 1, Inst: insts[k].ID, OK: ok}
		if ok {
			ev.Peer = fmt.Sprint(chosen)
		}
		sp.End(ev)
	}
	return chosen, ok
}
