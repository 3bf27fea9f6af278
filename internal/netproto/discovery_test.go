package netproto

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
)

// loopInst is an instance whose output feeds its own kind of input, so a
// path may name its service twice.
func loopInst(id string, svc service.Name, r float64) *service.Instance {
	return &service.Instance{
		ID:      id,
		Service: svc,
		Qin:     qos.MustVector(qos.Sym("format", "F"), qos.Range("rate", 0, 40)),
		Qout:    qos.MustVector(qos.Sym("format", "F"), qos.Range("rate", 20, 25)),
		R:       resource.Vec2(r, r),
		OutKbps: 100,
	}
}

// discoveryOverlay starts five peers on the given stack. Peer 0 is the
// user and peer 4 a bystander: both provide nothing. a#0 and b#0 are
// each offered by two providers (a hop never selects its own host, so
// every instance needs a second one); c#0 is a service no path names.
func discoveryOverlay(t *testing.T, network string) ([]*Peer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	peers := make([]*Peer, 5)
	for i := range peers {
		cfg := Config{Listen: "127.0.0.1:0", Network: network, CPU: 400, Memory: 400,
			RPCTimeout: 2 * time.Second}
		if i == 0 {
			cfg.Metrics = reg
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, ins := range map[int][]*service.Instance{
		1: {loopInst("a#0", "a", 10), loopInst("b#0", "b", 10)},
		2: {loopInst("a#0", "a", 10), loopInst("a#1", "a", 20)},
		3: {loopInst("b#0", "b", 10), loopInst("b#1", "b", 20), loopInst("c#0", "c", 10)},
	} {
		for _, in := range ins {
			if err := peers[i].Provide(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	return peers, reg
}

// perServiceDiscovery assembles layers and providers the way the
// per-(member × service) fan-out did: one single-service lookup per path
// position on every peer, binned by the position asked for. A provider
// is listed once per instance it offers, at the first position naming
// the service.
func perServiceDiscovery(t *testing.T, peers []*Peer, path []string) ([][]*service.Instance, map[string][]string) {
	t.Helper()
	layers := make([][]*service.Instance, len(path))
	providers := make(map[string][]string)
	for k, svc := range path {
		first := slices.Index(path, svc) == k
		seen := make(map[string]bool)
		for _, q := range peers {
			for _, off := range q.handleLookup(request{Service: svc}).Offers {
				in, err := FromWire(off.Instance)
				if err != nil {
					t.Fatal(err)
				}
				if !seen[in.ID] {
					seen[in.ID] = true
					layers[k] = append(layers[k], in)
				}
				if first {
					providers[in.ID] = append(providers[in.ID], off.Provider)
				}
			}
		}
		sort.Slice(layers[k], func(i, j int) bool { return layers[k][i].ID < layers[k][j].ID })
	}
	for id := range providers {
		sort.Strings(providers[id])
	}
	return layers, providers
}

// TestDiscoveryMatchesPerServiceFanOut is the differential for the
// batched lookup, on both stacks: same layers and providers as the
// per-service fan-out, exactly one lookup RPC per other member, and the
// single-service request form still answered.
func TestDiscoveryMatchesPerServiceFanOut(t *testing.T) {
	for _, network := range []string{"tcp", "udp"} {
		t.Run(network, func(t *testing.T) {
			peers, reg := discoveryOverlay(t, network)
			user := peers[0]
			path := []string{"a", "b", "a"}

			wantLayers, wantProviders := perServiceDiscovery(t, peers, path)
			if len(wantLayers[0]) != 2 || len(wantLayers[1]) != 2 || len(wantProviders["a#0"]) != 2 {
				t.Fatalf("reference discovery is not the scenario intended: layers %v providers %v",
					wantLayers, wantProviders)
			}
			before := snapCounter(t, reg.Snapshot(), "rpc.lookup.sent")
			layers, providers := user.discover(path)
			if !reflect.DeepEqual(layers, wantLayers) {
				t.Errorf("layers differ from the per-service fan-out:\n got %v\nwant %v", layers, wantLayers)
			}
			if !reflect.DeepEqual(providers, wantProviders) {
				t.Errorf("providers differ from the per-service fan-out:\n got %v\nwant %v", providers, wantProviders)
			}
			if layers[0][0] == layers[2][0] {
				t.Error("a repeated service shares instance values between its two layers")
			}
			others := uint64(len(peers) - 1)
			if got := snapCounter(t, reg.Snapshot(), "rpc.lookup.sent") - before; got != others {
				t.Errorf("discover sent %d lookup RPCs, want %d (one per other member)", got, others)
			}

			const aggs = 3
			before = snapCounter(t, reg.Snapshot(), "rpc.lookup.sent")
			for i := 0; i < aggs; i++ {
				plan, err := user.Aggregate([]service.Name{"a", "b", "a"}, userQoS, 50*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if want := []string{"a#0", "b#0", "a#0"}; !reflect.DeepEqual(plan.Instances, want) {
					t.Fatalf("plan instances %v, want %v", plan.Instances, want)
				}
			}
			snap := reg.Snapshot()
			if got := snapCounter(t, snap, "rpc.lookup.sent") - before; got != aggs*others {
				t.Errorf("%d aggregations sent %d lookup RPCs, want %d", aggs, got, aggs*others)
			}
			if got := snapCounter(t, snap, "discovery.lookup_failed"); got != 0 {
				t.Errorf("discovery.lookup_failed = %d on a healthy overlay", got)
			}

			// An initiator built before the batched lookup names one service
			// in the old field and must get that service's offers alone.
			resp, err := user.rpc(peers[2].Addr(), request{Type: msgLookup, Service: "a"}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Offers) != 2 || resp.Offers[0].Instance.ID != "a#0" || resp.Offers[1].Instance.ID != "a#1" {
				t.Errorf("single-service lookup answered %+v, want a#0 and a#1", resp.Offers)
			}
			// Both fields set: the union, each offer once.
			resp, err = user.rpc(peers[1].Addr(), request{Type: msgLookup, Service: "a", Services: []string{"a", "b"}}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Offers) != 2 || resp.Offers[0].Instance.ID != "a#0" || resp.Offers[1].Instance.ID != "b#0" {
				t.Errorf("lookup naming a service in both fields answered %+v, want a#0 and b#0", resp.Offers)
			}
		})
	}
}
