package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
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
