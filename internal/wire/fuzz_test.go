package wire

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns valid frames of both directions plus assorted
// garbage, so the fuzzer starts from structurally interesting input.
func fuzzSeeds(tb testing.TB) [][]byte {
	bin := NewBinary()
	var seeds [][]byte
	for i, req := range sampleRequests() {
		b, err := bin.AppendRequest(nil, uint64(i), &req)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for i, resp := range sampleResponses() {
		b, err := bin.AppendResponse(nil, uint64(i), &resp)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	seeds = append(seeds,
		[]byte{},
		[]byte("{\"type\":\"join\"}\n"),
		[]byte{magic0, magic1, binVersion},
		bytes.Repeat([]byte{magic0}, 64),
		AppendPacket(nil, &Packet{Type: PktData, MsgID: 9, FragIdx: 0, FragCount: 1, Payload: []byte("hi")}),
	)
	// Frames of the retired extensions, which every decoder must reject.
	return append(seeds, compressedFrame(tb), announcingFrame(tb))
}

// FuzzBinaryDecode throws arbitrary bytes at every decoder: none may
// panic or allocate unboundedly, and anything that decodes cleanly
// must be canonical — re-encoding the decoded struct and decoding
// again must reproduce byte-identical frames. (Bytes, not structs:
// fuzzed floats can be NaN, which reflect.DeepEqual rejects.)
func FuzzBinaryDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	bin := NewBinary()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if _, err := bin.DecodeRequest(data, &req); err == nil {
			re1, err := bin.AppendRequest(nil, 1, &req)
			if err != nil {
				t.Fatalf("accepted request failed to re-encode: %v", err)
			}
			var req2 Request
			if _, err := bin.DecodeRequest(re1, &req2); err != nil {
				t.Fatalf("re-encoded request failed to decode: %v", err)
			}
			re2, err := bin.AppendRequest(nil, 1, &req2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re1, re2) {
				t.Fatalf("request not canonical:\n1st: %x\n2nd: %x", re1, re2)
			}
		}
		var resp Response
		if _, err := bin.DecodeResponse(data, &resp); err == nil {
			re1, err := bin.AppendResponse(nil, 1, &resp)
			if err != nil {
				t.Fatalf("accepted response failed to re-encode: %v", err)
			}
			var resp2 Response
			if _, err := bin.DecodeResponse(re1, &resp2); err != nil {
				t.Fatalf("re-encoded response failed to decode: %v", err)
			}
			re2, err := bin.AppendResponse(nil, 1, &resp2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re1, re2) {
				t.Fatalf("response not canonical:\n1st: %x\n2nd: %x", re1, re2)
			}
		}
		var p Packet
		_ = ParsePacket(data, &p) // must not panic
	})
}

// TestFuzzSeedsClean runs the fuzz corpus as a plain test so the
// property holds even when ci runs without fuzzing support.
func TestFuzzSeedsClean(t *testing.T) {
	bin := NewBinary()
	for i, data := range fuzzSeeds(t) {
		var req Request
		var resp Response
		var p Packet
		_, _ = bin.DecodeRequest(data, &req)
		_, _ = bin.DecodeResponse(data, &resp)
		_ = ParsePacket(data, &p)
		_ = i
	}
}
