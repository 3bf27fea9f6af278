package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// goldenFrames are binary requests as encoded by the codec that still
// carried flate compression and announcement batches. Both set
// FlagServing, whose tail ends in the (zero) announcement count, so
// peers of either version must keep producing these exact bytes.
var goldenFrames = []struct {
	name  string
	reqID uint64
	req   Request
	hex   string
}{
	{"lookup with services", 7,
		Request{Type: TypeLookup, Service: "transcode", Services: []string{"source", "transcode", "player"}},
		"515301032207000000000000003300097472616e73636f6465000000000000000000000306736f75726365097472616e73636f646506706c617965720000000000bbe149f4"},
	{"aggregate", 8,
		Request{Type: TypeAggregate, Addr: "127.0.0.1:9000", Services: []string{"source", "transcode", "player"},
			MinRate: 15, Priority: 2, Deadline: 0.25, DTolerant: true, DurationSec: 30, TraceID: 42, SpanID: 43},
		"515301083008000000000000003e0e3132372e302e302e313a3930303000000000000000c07c0000002a2b0306736f75726365097472616e73636f646506706c61796572c05c04bfa00301003a8686af"},
}

func TestGoldenRequestBytes(t *testing.T) {
	bin := NewBinary()
	for _, g := range goldenFrames {
		got, err := bin.AppendRequest(nil, g.reqID, &g.req)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if h := hex.EncodeToString(got); h != g.hex {
			t.Errorf("%s: encoding moved\ngot  %s\nwant %s", g.name, h, g.hex)
		}
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		var dec Request
		if id, err := bin.DecodeRequest(want, &dec); err != nil || id != g.reqID {
			t.Fatalf("%s: golden frame no longer decodes: id %d, %v", g.name, id, err)
		}
		if re, _ := bin.AppendRequest(nil, g.reqID, &dec); !bytes.Equal(re, want) {
			t.Errorf("%s: golden frame does not round-trip", g.name)
		}
	}
}

// goldenLines are JSON messages as encoding/json wrote them (json.Marshal
// plus '\n') before the codec was hand-written: the lookup naming a
// whole path, a select with candidates, a lookup reply with an offer,
// and an aggregate reply with the hop trace. Peers of either build must
// keep writing these exact lines.
var goldenLines = []struct {
	name string
	msg  any // *Request or *Response
	line string
}{
	{"lookup with services",
		&Request{Type: TypeLookup, Service: "svc1", Services: []string{"svc0", "svc1", "svc2"}, TraceID: 42, SpanID: 43},
		"{\"type\":\"lookup\",\"service\":\"svc1\",\"trace_id\":42,\"span_id\":43,\"services\":[\"svc0\",\"svc1\",\"svc2\"]}\n"},
	{"select with candidates",
		&Request{Type: TypeSelect, Instances: []Instance{goldenInstance("svc0#0", "svc0", "F0", "F1"), goldenInstance("svc1#0", "svc1", "F1", "F2")},
			Candidates: map[string][]string{"svc1#0": {"127.0.0.1:9003", "127.0.0.1:9004"}, "svc0#0": {"127.0.0.1:9001", "127.0.0.1:9002"}},
			Idx:        1, Chain: []string{"127.0.0.1:9005"}, UserAddr: "127.0.0.1:9000", Trace: true, DurationSec: 1.5},
		"{\"type\":\"select\",\"instances\":[{\"id\":\"svc0#0\",\"service\":\"svc0\",\"qin\":[{\"name\":\"format\",\"sym\":\"F0\"},{\"name\":\"rate\",\"hi\":40}],\"qout\":[{\"name\":\"format\",\"sym\":\"F1\"},{\"name\":\"rate\",\"lo\":21.5,\"hi\":24}],\"cpu\":5,\"memory\":5,\"kbps\":50},{\"id\":\"svc1#0\",\"service\":\"svc1\",\"qin\":[{\"name\":\"format\",\"sym\":\"F1\"},{\"name\":\"rate\",\"hi\":40}],\"qout\":[{\"name\":\"format\",\"sym\":\"F2\"},{\"name\":\"rate\",\"lo\":21.5,\"hi\":24}],\"cpu\":5,\"memory\":5,\"kbps\":50}],\"candidates\":{\"svc0#0\":[\"127.0.0.1:9001\",\"127.0.0.1:9002\"],\"svc1#0\":[\"127.0.0.1:9003\",\"127.0.0.1:9004\"]},\"idx\":1,\"chain\":[\"127.0.0.1:9005\"],\"user_addr\":\"127.0.0.1:9000\",\"trace\":true,\"duration_sec\":1.5}\n"},
	{"lookup response with offers",
		&Response{OK: true, Offers: []Offer{{Instance: goldenInstance("svc0#0", "svc0", "F0", "F1"), Provider: "127.0.0.1:9001"}}},
		"{\"ok\":true,\"offers\":[{\"instance\":{\"id\":\"svc0#0\",\"service\":\"svc0\",\"qin\":[{\"name\":\"format\",\"sym\":\"F0\"},{\"name\":\"rate\",\"hi\":40}],\"qout\":[{\"name\":\"format\",\"sym\":\"F1\"},{\"name\":\"rate\",\"lo\":21.5,\"hi\":24}],\"cpu\":5,\"memory\":5,\"kbps\":50},\"provider\":\"127.0.0.1:9001\"}]}\n"},
	{"aggregate response",
		&Response{OK: true, Chain: []string{"127.0.0.1:9001", "127.0.0.1:9003"}, SessionID: "127.0.0.1:9000/1", Cost: 0.4231,
			Hops: []Hop{{Idx: 0, At: "127.0.0.1:9001", Inst: "svc0#0", Chosen: "127.0.0.1:9001", Mode: "remote",
				Cands: []Cand{{Addr: "127.0.0.1:9001", Phi: 0.82, Reason: "max-phi"}, {Addr: "127.0.0.1:9002", Reason: "probe-failed"}}},
				{Idx: 1, At: "127.0.0.1:9001", Inst: "svc1#0", Mode: "local"}}},
		"{\"ok\":true,\"chain\":[\"127.0.0.1:9001\",\"127.0.0.1:9003\"],\"hops\":[{\"idx\":0,\"at\":\"127.0.0.1:9001\",\"inst\":\"svc0#0\",\"chosen\":\"127.0.0.1:9001\",\"mode\":\"remote\",\"cands\":[{\"addr\":\"127.0.0.1:9001\",\"phi\":0.82,\"reason\":\"max-phi\"},{\"addr\":\"127.0.0.1:9002\",\"reason\":\"probe-failed\"}]},{\"idx\":1,\"at\":\"127.0.0.1:9001\",\"inst\":\"svc1#0\",\"mode\":\"local\"}],\"session_id\":\"127.0.0.1:9000/1\",\"cost\":0.4231}\n"},
}

// goldenInstance is the instance spec the golden lines carry.
func goldenInstance(id, svc, in, out string) Instance {
	return Instance{ID: id, Service: svc,
		Qin:  []Param{{Name: "format", Sym: in}, {Name: "rate", Lo: 0, Hi: 40}},
		Qout: []Param{{Name: "format", Sym: out}, {Name: "rate", Lo: 21.5, Hi: 24}},
		CPU:  5, Memory: 5, Kbps: 50}
}

func TestGoldenJSONLines(t *testing.T) {
	for _, g := range goldenLines {
		var got []byte
		var err error
		var dec any
		switch m := g.msg.(type) {
		case *Request:
			got, err = JSON{}.AppendRequest(nil, 0, m)
			var r Request
			if _, derr := (JSON{}).DecodeRequest([]byte(g.line), &r); derr != nil {
				t.Fatalf("%s: golden line no longer decodes: %v", g.name, derr)
			}
			dec = &r
		case *Response:
			got, err = JSON{}.AppendResponse(nil, 0, m)
			var r Response
			if _, derr := (JSON{}).DecodeResponse([]byte(g.line), &r); derr != nil {
				t.Fatalf("%s: golden line no longer decodes: %v", g.name, derr)
			}
			dec = &r
		}
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if string(got) != g.line {
			t.Errorf("%s: encoding moved\ngot  %s\nwant %s", g.name, got, g.line)
		}
		if !reflect.DeepEqual(dec, g.msg) {
			t.Errorf("%s: golden line decodes to %+v", g.name, dec)
		}
	}
}

// reframe rebuilds frame with extra header flags and a mutated body
// under a fresh CRC, so a decoder sees a well-formed frame and has to
// reject it on content rather than on its checksum.
func reframe(tb testing.TB, frame []byte, flags byte, mutate func(body []byte) []byte) []byte {
	tb.Helper()
	kind, old, reqID, body, err := openFrame(frame)
	if err != nil {
		tb.Fatal(err)
	}
	out := appendHeader(nil, kind, old|flags, reqID)
	bodyStart := len(out)
	out = append(out, mutate(append([]byte(nil), body...))...)
	out, err = finishFrame(out, 0, bodyStart)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// compressedFrame is a valid select request with the retired
// compressed-body flag set and its plain body left in place.
func compressedFrame(tb testing.TB) []byte {
	tb.Helper()
	req := sampleRequests()[4]
	frame, err := NewBinary().AppendRequest(nil, 99, &req)
	if err != nil {
		tb.Fatal(err)
	}
	return reframe(tb, frame, flagCompressed, func(b []byte) []byte { return b })
}

// announcingFrame is an aggregate request whose FlagServing tail
// carries one announcement (address "x", everything else empty), the
// batch an older peer could still send.
func announcingFrame(tb testing.TB) []byte {
	tb.Helper()
	frame, err := NewBinary().AppendRequest(nil, 98, &goldenFrames[1].req)
	if err != nil {
		tb.Fatal(err)
	}
	return reframe(tb, frame, 0, func(b []byte) []byte {
		b[len(b)-1] = 1 // announcement count
		return append(b, 1, 'x', 0, 0, 0, 0)
	})
}

func TestRetiredExtensionsRejected(t *testing.T) {
	bin := NewBinary()
	var req Request
	if _, err := bin.DecodeRequest(compressedFrame(t), &req); !errors.Is(err, errRetired) {
		t.Errorf("compressed request: err = %v, want %v", err, errRetired)
	}
	resp := sampleResponses()[2]
	frame, err := bin.AppendResponse(nil, 5, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var dst Response
	if _, err := bin.DecodeResponse(reframe(t, frame, flagCompressed, func(b []byte) []byte { return b }), &dst); !errors.Is(err, errRetired) {
		t.Errorf("compressed response: err = %v, want %v", err, errRetired)
	}
	if _, err := bin.DecodeRequest(announcingFrame(t), &req); !errors.Is(err, errRetired) {
		t.Errorf("announcement batch: err = %v, want %v", err, errRetired)
	}
}
