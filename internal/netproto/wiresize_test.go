package netproto

import (
	"testing"

	"repro/internal/wire"
)

// TestBinaryHalvesPayloadRPCs pins the binary codec's size claim on the
// payload-bearing RPCs — lookup and select, which carry instance specs
// and QoS vectors and grow with the grid: one request + response
// exchange costs at most half the bytes of its JSON form. Control
// messages (join, probe, release) are dominated by the fixed binary
// envelope and are not held to the bar.
func TestBinaryHalvesPayloadRPCs(t *testing.T) {
	in := ToWire(inst("bench/i0", "bench", "RAW", "MPEG", 40, 400))
	for _, e := range []struct {
		typ  string
		req  request
		resp response
	}{
		{msgLookup, request{Type: msgLookup, Service: "bench"},
			// A 5-peer grid's discovery reply: one offer per provider.
			response{OK: true, Offers: []offer{
				{Instance: in, Provider: "127.0.0.1:9001"},
				{Instance: in, Provider: "127.0.0.1:9002"},
				{Instance: in, Provider: "127.0.0.1:9003"},
				{Instance: in, Provider: "127.0.0.1:9004"},
			}}},
		{msgSelect, request{
			Type:       msgSelect,
			Instances:  []WireInstance{in, in},
			Candidates: map[string][]string{"bench/i0": {"127.0.0.1:9001", "127.0.0.1:9002"}},
			Chain:      []string{"127.0.0.1:9001"},
			UserAddr:   "127.0.0.1:9000",
		}, response{OK: true, Chain: []string{"127.0.0.1:9001", "127.0.0.1:9002"}}},
	} {
		size := func(c wire.Codec) int {
			q, err := c.AppendRequest(nil, 1, &e.req)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.AppendResponse(nil, 1, &e.resp)
			if err != nil {
				t.Fatal(err)
			}
			return len(q) + len(r)
		}
		j, b := size(wire.JSON{}), size(wire.NewBinary())
		t.Logf("%-7s json=%4dB binary=%4dB (%.1fx)", e.typ, j, b, float64(j)/float64(b))
		if 2*b > j {
			t.Errorf("%s: binary %dB is not at most half of JSON %dB", e.typ, b, j)
		}
	}
}
