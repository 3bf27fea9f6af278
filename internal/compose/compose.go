// Package compose implements the on-demand service composition tier of QSA
// (paper §3.2): choosing, among all discovered candidate service instances,
// a QoS-consistent service path with minimum aggregated resource
// requirements — the QCS ("QoS consistent and shortest") algorithm — plus
// the paper's two baseline composers, random and fixed.
//
// The instance candidates form a layered graph: layer k holds the
// instances of the k-th abstract service of the application, in
// aggregation-flow order (source = layer 0 … last processing component =
// layer n−1), with the user's host as the data sink. QCS:
//
//  1. adds a directed edge between instances of adjacent layers when the
//     predecessor's Qout satisfies the successor's Qin (eq. 1), and from
//     the final layer to the user when Qout satisfies the user's
//     end-to-end QoS requirement;
//  2. prices each edge into predecessor B with the resource tuple
//     (R_B, b_{B,A}) of Definition 3.1, scalarized as
//     Σᵢ wᵢ·rᵢ/rᵢᵐᵃˣ + w_{m+1}·b/bᵐᵃˣ — the definition's weighted
//     normalized comparison is linear, so comparing summed scalar costs is
//     exactly comparing aggregated tuples, and ordinary Dijkstra applies
//     (the sink side's own resource demand is excluded, footnote 3);
//  3. runs Dijkstra from the user node in the reverse direction of the
//     aggregation flow (as in the paper's Figure 3) and stops at the first
//     settled source-layer instance.
//
// Complexity is O(K·V²) in the paper's notation (V candidate instances per
// service, K services).
package compose

import (
	"container/heap"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/xrand"
)

// ErrNoConsistentPath is returned when no QoS-consistent service path
// exists for the request.
var ErrNoConsistentPath = errors.New("compose: no QoS-consistent service path")

// Config holds the Definition 3.1 weighting and normalization constants.
type Config struct {
	// Weights are w₁…w_m for the end-system resource dimensions followed by
	// w_{m+1} for network bandwidth; they must sum to 1 (eq. 3). The paper's
	// evaluation distributes importance uniformly — the default is
	// [1/3, 1/3, 1/3] for (cpu, memory, bandwidth).
	Weights []float64
	// RMax is rᵢᵐᵃˣ, the normalization constant for end-system resources
	// (default 1000 units, the largest peer capacity).
	RMax float64
	// BMax is bᵐᵃˣ, the normalization constant for bandwidth (default
	// 10000 kbps, the largest pairwise class).
	BMax float64
	// Obs receives composition work counters (graph size, Dijkstra
	// relaxations). The zero value disables the accounting.
	Obs obs.ComposeCounters
	// Memo caches QoS-compatibility outcomes across composition runs (nil:
	// every check is evaluated).
	Memo *Memo
	// Scratch reuses the composer's working buffers across runs (nil:
	// buffers are allocated per run). Not safe for concurrent use.
	Scratch *Scratch
}

// Scratch holds the reusable working memory of one composition pipeline:
// the Dijkstra node slab, layer offsets, the priority-queue backing array,
// and per-layer candidate-order buffers for the backtracking baselines.
// The zero value is ready to use; buffers grow to the high-water mark and
// are then reused allocation-free. A Scratch serves one goroutine.
type Scratch struct {
	slab  []node
	off   []int
	heap  nodeHeap
	perms [][]int
}

// NewScratch returns an empty scratch arena.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) ensurePerms(k int) {
	for len(s.perms) < k {
		s.perms = append(s.perms, nil)
	}
}

func (c *Config) fillDefaults() {
	if len(c.Weights) == 0 {
		c.Weights = []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	if c.RMax == 0 {
		c.RMax = 1000
	}
	if c.BMax == 0 {
		c.BMax = 10000
	}
}

// Validate checks the weight vector against eq. 3.
func (c Config) Validate() error {
	cc := c
	cc.fillDefaults()
	var sum float64
	for _, w := range cc.Weights {
		if w < 0 {
			return fmt.Errorf("compose: negative weight %v", w)
		}
		sum += w
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("compose: weights sum to %v, want 1", sum)
	}
	if cc.RMax <= 0 || cc.BMax <= 0 {
		return fmt.Errorf("compose: non-positive normalization constants")
	}
	return nil
}

// EdgeCost prices the edge into predecessor instance b — the scalarized
// Definition 3.1 tuple (R_b, b.OutKbps).
func (c Config) EdgeCost(b *service.Instance) float64 {
	cc := c
	cc.fillDefaults()
	m := len(cc.Weights) - 1
	var cost float64
	for i := 0; i < m && i < len(b.R); i++ {
		cost += cc.Weights[i] * b.R[i] / cc.RMax
	}
	cost += cc.Weights[m] * b.OutKbps / cc.BMax
	return cost
}

// Path is a composed, QoS-consistent service path in aggregation-flow
// order (source first) with its aggregated Definition 3.1 cost.
type Path struct {
	Instances []*service.Instance
	Cost      float64
}

// PathCost recomputes the aggregated cost of an instance sequence.
func (c Config) PathCost(instances []*service.Instance) float64 {
	var cost float64
	for _, in := range instances {
		cost += c.EdgeCost(in)
	}
	return cost
}

// Consistent reports whether the instance sequence is QoS-consistent end
// to end, including the final hop to the user requirement.
func Consistent(instances []*service.Instance, userQoS qos.Vector) bool {
	for i := 0; i+1 < len(instances); i++ {
		if !instances[i].CanFeed(instances[i+1]) {
			return false
		}
	}
	if len(instances) == 0 {
		return false
	}
	return qos.Satisfies(instances[len(instances)-1].Qout, userQoS)
}

// node addresses one instance in the layered graph during Dijkstra; id
// is the instance's dense index in the memo (Memo.id).
type node struct {
	layer, idx int
	id         int32
	dist       float64
	heapIdx    int
	settled    bool
	parent     *node // toward the user side (layer+1), nil for final layer
}

type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *nodeHeap) Push(x any)        { n := x.(*node); n.heapIdx = len(*h); *h = append(*h, n) }
func (h *nodeHeap) Pop() any          { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

func validateLayers(layers [][]*service.Instance) error {
	if len(layers) == 0 {
		return fmt.Errorf("compose: empty service path")
	}
	for k, layer := range layers {
		if len(layer) == 0 {
			return fmt.Errorf("compose: no candidate instances for service at hop %d", k)
		}
	}
	return nil
}

// QCS composes the QoS-consistent, resource-shortest service path for the
// layered candidates and the user's end-to-end QoS requirement. With
// cfg.Scratch set the node graph and priority queue live in reused
// buffers; with cfg.Memo set the compatibility checks are served from the
// memo — neither changes the result.
func QCS(layers [][]*service.Instance, userQoS qos.Vector, cfg Config) (*Path, error) {
	if err := validateLayers(layers); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	cfg.Obs.Runs.Inc()

	sc := cfg.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	total := 0
	for _, layer := range layers {
		total += len(layer)
	}
	// Size the slab before taking node pointers: the graph must not grow
	// (and relocate) once *node handles exist.
	if cap(sc.slab) < total {
		sc.slab = make([]node, total)
	}
	sc.slab = sc.slab[:total]
	if cap(sc.off) < len(layers) {
		sc.off = make([]int, len(layers))
	}
	sc.off = sc.off[:len(layers)]
	at := 0
	for k, layer := range layers {
		sc.off[k] = at
		for i := range layer {
			sc.slab[at] = node{layer: k, idx: i, id: cfg.Memo.id(layer[i]), dist: -1, heapIdx: -1}
			at++
		}
		cfg.Obs.Vertices.Add(uint64(len(layer)))
	}

	sc.heap = sc.heap[:0]
	h := &sc.heap
	last := len(layers) - 1
	// Seed: edges from the virtual user node to final-layer instances whose
	// Qout satisfies the user requirement.
	for i, in := range layers[last] {
		if !cfg.Memo.SatisfiesUser(in, userQoS) {
			continue
		}
		cfg.Obs.Edges.Inc()
		n := &sc.slab[sc.off[last]+i]
		n.dist = cfg.EdgeCost(in)
		cfg.Obs.Relaxations.Inc()
		heap.Push(h, n)
	}

	for h.Len() > 0 {
		cur := heap.Pop(h).(*node)
		if cur.settled {
			continue
		}
		cur.settled = true
		if cur.layer == 0 {
			// First settled source instance: shortest aggregated cost.
			out := make([]*service.Instance, 0, len(layers))
			for n := cur; n != nil; n = n.parent {
				out = append(out, layers[n.layer][n.idx])
			}
			return &Path{Instances: out, Cost: cur.dist}, nil
		}
		curInst := layers[cur.layer][cur.idx]
		preds := sc.slab[sc.off[cur.layer-1]:]
		for j, pred := range layers[cur.layer-1] {
			n := &preds[j]
			if !cfg.Memo.feeds(pred, n.id, curInst, cur.id) {
				continue
			}
			cfg.Obs.Edges.Inc()
			if n.settled {
				continue
			}
			d := cur.dist + cfg.EdgeCost(pred)
			if n.dist < 0 || d < n.dist {
				cfg.Obs.Relaxations.Inc()
				n.dist = d
				n.parent = cur
				if n.heapIdx >= 0 {
					heap.Fix(h, n.heapIdx)
				} else {
					heap.Push(h, n)
				}
			}
		}
	}
	cfg.Obs.NoPath.Inc()
	return nil, ErrNoConsistentPath
}

// backtrack builds a consistent path visiting layers from the user side
// toward the source, trying candidates in the order given by order (which
// may reuse a per-layer buffer: re-entries to a layer only happen after
// the previous iteration at that layer has fully unwound). chosen is
// filled in reverse (index last..0).
func backtrack(layers [][]*service.Instance, userQoS qos.Vector, memo *Memo,
	chosen []*service.Instance, layer int, order func(layer, n int) []int) bool {
	if layer < 0 {
		return true
	}
	last := layer == len(layers)-1
	var next *service.Instance
	var nextID int32
	if !last {
		next = chosen[layer+1]
		nextID = memo.id(next)
	}
	for _, i := range order(layer, len(layers[layer])) {
		cand := layers[layer][i]
		if last {
			if !memo.SatisfiesUser(cand, userQoS) {
				continue
			}
		} else if !memo.feeds(cand, memo.id(cand), next, nextID) {
			continue
		}
		chosen[layer] = cand
		if backtrack(layers, userQoS, memo, chosen, layer-1, order) {
			return true
		}
	}
	return false
}

// Random composes a QoS-consistent path chosen without regard to resource
// consumption — the paper's random baseline composer. It randomizes the
// candidate order at every layer and backtracks on dead ends.
func Random(layers [][]*service.Instance, userQoS qos.Vector, rng *xrand.Source, cfg Config) (*Path, error) {
	if err := validateLayers(layers); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	sc := cfg.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensurePerms(len(layers))
	chosen := make([]*service.Instance, len(layers))
	ok := backtrack(layers, userQoS, cfg.Memo, chosen, len(layers)-1, func(layer, n int) []int {
		sc.perms[layer] = rng.PermInto(sc.perms[layer], n)
		return sc.perms[layer]
	})
	if !ok {
		return nil, ErrNoConsistentPath
	}
	return &Path{Instances: chosen, Cost: cfg.PathCost(chosen)}, nil
}

// Fixed composes the same QoS-consistent path every time for the same
// candidate sets and user requirement — the paper's fixed baseline,
// representing a conventional client-server deployment. It is the first
// consistent path in deterministic candidate order.
func Fixed(layers [][]*service.Instance, userQoS qos.Vector, cfg Config) (*Path, error) {
	if err := validateLayers(layers); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	sc := cfg.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensurePerms(len(layers))
	chosen := make([]*service.Instance, len(layers))
	ok := backtrack(layers, userQoS, cfg.Memo, chosen, len(layers)-1, func(layer, n int) []int {
		p := sc.perms[layer]
		if cap(p) < n {
			p = make([]int, n)
		}
		p = p[:n]
		for i := range p {
			p[i] = i
		}
		sc.perms[layer] = p
		return p
	})
	if !ok {
		return nil, ErrNoConsistentPath
	}
	return &Path{Instances: chosen, Cost: cfg.PathCost(chosen)}, nil
}
