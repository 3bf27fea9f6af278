package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleInstance returns a fully-populated wire instance.
func sampleInstance(id string) Instance {
	return Instance{
		ID:      id,
		Service: "transcode",
		Qin: []Param{
			{Name: "rate", Sym: "kbps", Lo: 96, Hi: 512},
			{Name: "latency", Lo: 0.5, Hi: 20},
		},
		Qout:   []Param{{Name: "rate", Sym: "kbps", Lo: 64, Hi: 256}},
		CPU:    1.5,
		Memory: 256,
		Kbps:   512,
	}
}

// sampleRequests covers every RPC type plus the KindOther escape
// hatch and the nil/empty edge shapes the codec must preserve.
func sampleRequests() []Request {
	return []Request{
		{Type: TypeJoin, Addr: "127.0.0.1:9001"},
		{Type: TypeLeave, Addr: "127.0.0.1:9001"},
		{Type: TypeLookup, Service: "transcode"},
		{Type: TypeProbe},
		{
			Type:      TypeSelect,
			Instances: []Instance{sampleInstance("i0"), sampleInstance("i1")},
			Candidates: map[string][]string{
				"i0": {"127.0.0.1:9001", "127.0.0.1:9002"},
				"i1": {"127.0.0.1:9003"},
			},
			Idx:      1,
			Chain:    []string{"127.0.0.1:9001"},
			UserAddr: "127.0.0.1:9000",
			Trace:    true,
		},
		{Type: TypeReserve, SessionID: "s-1", InstanceID: "i0", CPU: 0.5, Memory: 64, DurationSec: 30},
		{Type: TypeRelease, SessionID: "s-1", InstanceID: "i0"},
		{Type: "future-op", Addr: "somewhere", Idx: -7},
		{}, // zero value: Type "" travels as KindOther
		{ // nil/empty shape edges
			Type: TypeSelect,
			Instances: []Instance{
				{ID: "bare", Service: "s"},                                  // nil qin/qout
				{ID: "empt", Service: "s", Qin: []Param{}, Qout: []Param{}}, // present but empty
			},
			Candidates: map[string][]string{"bare": nil, "empt": {}},
		},
		{ // trace context rides any request type, with full 64-bit IDs
			Type:    TypeProbe,
			TraceID: 1<<63 | 0xdeadbeef,
			SpanID:  0x1234567890abcdef,
		},
		{ // aggregate: the serving-plane request shape (FlagServing tail)
			Type:        TypeAggregate,
			Addr:        "127.0.0.1:9000",
			Services:    []string{"source", "transcode", "player"},
			MinRate:     15,
			Priority:    2,
			Deadline:    0.25,
			DTolerant:   true,
			DurationSec: 30,
		},
		{ // lookup naming the whole path (FlagServing tail, no other serving field)
			Type:     TypeLookup,
			Service:  "transcode",
			Services: []string{"source", "transcode", "player"},
		},
		{ // serving tail composes with the trace-context tail
			Type:     TypeAggregate,
			Services: []string{"source"},
			Priority: -1,
			TraceID:  42,
			SpanID:   43,
		},
	}
}

func sampleResponses() []Response {
	return []Response{
		{OK: true, Members: []string{"127.0.0.1:9001", "127.0.0.1:9002"}},
		{OK: false, Err: "no candidate for instance i0"},
		{OK: true, Offers: []Offer{
			{Instance: sampleInstance("i0"), Provider: "127.0.0.1:9001"},
			{Instance: sampleInstance("i1"), Provider: "127.0.0.1:9002"},
		}},
		{OK: true, Avail: []float64{1.5, 256, 0}, UptimeSec: 1234.5},
		{OK: true, Chain: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, Hops: []Hop{
			{Idx: 0, At: "127.0.0.1:9001", Inst: "i0", Chosen: "127.0.0.1:9002", Mode: "remote",
				Cands: []Cand{
					{Addr: "127.0.0.1:9002", Phi: 0.82, Reason: "max-phi"},
					{Addr: "127.0.0.1:9003", Reason: "probe-failed"},
				}},
			{Idx: 1, At: "127.0.0.1:9002", Inst: "i1", Mode: "local"},
		}},
		{},
		{ // aggregate success: serving-plane reply fields
			OK: true, SessionID: "127.0.0.1:9000/1", Cost: 0.4231,
			Chain: []string{"127.0.0.1:9001", "127.0.0.1:9002"},
		},
		{ // backpressure: shed with a deterministic retry-after hint
			Err: "shed: queue full", Shed: true, RetryAfterSec: 0.2,
		},
	}
}

// TestCrossCodecDifferential is the satellite differential test: for
// every message shape, encoding+decoding with JSON and with binary
// must land on identical structs.
func TestCrossCodecDifferential(t *testing.T) {
	bin := NewBinary()
	js := JSON{}
	for i, req := range sampleRequests() {
		var jb, bb []byte
		jb, err := js.AppendRequest(jb, 7, &req)
		if err != nil {
			t.Fatalf("req %d: json encode: %v", i, err)
		}
		bb, err = bin.AppendRequest(bb, 7, &req)
		if err != nil {
			t.Fatalf("req %d: binary encode: %v", i, err)
		}
		var jr, br Request
		if _, err := js.DecodeRequest(jb, &jr); err != nil {
			t.Fatalf("req %d: json decode: %v", i, err)
		}
		id, err := bin.DecodeRequest(bb, &br)
		if err != nil {
			t.Fatalf("req %d: binary decode: %v", i, err)
		}
		if id != 7 {
			t.Fatalf("req %d: reqID = %d, want 7", i, id)
		}
		if !reflect.DeepEqual(jr, br) {
			t.Errorf("req %d: codec divergence\njson:   %+v\nbinary: %+v", i, jr, br)
		}
	}
	for i, resp := range sampleResponses() {
		var jb, bb []byte
		jb, err := js.AppendResponse(jb, 9, &resp)
		if err != nil {
			t.Fatalf("resp %d: json encode: %v", i, err)
		}
		bb, err = bin.AppendResponse(bb, 9, &resp)
		if err != nil {
			t.Fatalf("resp %d: binary encode: %v", i, err)
		}
		var jr, br Response
		if _, err := js.DecodeResponse(jb, &jr); err != nil {
			t.Fatalf("resp %d: json decode: %v", i, err)
		}
		id, err := bin.DecodeResponse(bb, &br)
		if err != nil {
			t.Fatalf("resp %d: binary decode: %v", i, err)
		}
		if id != 9 {
			t.Fatalf("resp %d: reqID = %d, want 9", i, id)
		}
		if !reflect.DeepEqual(jr, br) {
			t.Errorf("resp %d: codec divergence\njson:   %+v\nbinary: %+v", i, jr, br)
		}
	}
}

// TestBinaryDecodeIntoDirtyStructs proves decode fully overwrites a
// previously-used destination: decoding message A into a struct that
// held message B must equal decoding A into a fresh struct.
func TestBinaryDecodeIntoDirtyStructs(t *testing.T) {
	bin := NewBinary()
	reqs := sampleRequests()
	var dirty Request
	for round := 0; round < 3; round++ {
		for i := range reqs {
			var buf []byte
			buf, err := bin.AppendRequest(buf, uint64(i), &reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			var fresh Request
			if _, err := bin.DecodeRequest(buf, &fresh); err != nil {
				t.Fatal(err)
			}
			if _, err := bin.DecodeRequest(buf, &dirty); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, dirty) {
				t.Fatalf("req %d round %d: dirty-struct decode diverged\nfresh: %+v\ndirty: %+v", i, round, fresh, dirty)
			}
		}
	}
	resps := sampleResponses()
	var dirtyResp Response
	for round := 0; round < 3; round++ {
		for i := range resps {
			var buf []byte
			buf, err := bin.AppendResponse(buf, uint64(i), &resps[i])
			if err != nil {
				t.Fatal(err)
			}
			var fresh Response
			if _, err := bin.DecodeResponse(buf, &fresh); err != nil {
				t.Fatal(err)
			}
			if _, err := bin.DecodeResponse(buf, &dirtyResp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, dirtyResp) {
				t.Fatalf("resp %d round %d: dirty-struct decode diverged", i, round)
			}
		}
	}
}

// TestBinaryHeaderFlags checks the idempotency bit the UDP transport
// keys its retransmit decision on, and the envelope direction checks.
func TestBinaryHeaderFlags(t *testing.T) {
	bin := NewBinary()
	for _, tc := range []struct {
		typ  string
		idem bool
	}{
		{TypeJoin, true}, {TypeLeave, true}, {TypeLookup, true}, {TypeProbe, true},
		{TypeRelease, true}, {TypeReserve, true}, {TypeSelect, false}, {"weird", false},
	} {
		req := Request{Type: tc.typ}
		buf, err := bin.AppendRequest(nil, 1, &req)
		if err != nil {
			t.Fatal(err)
		}
		flags, ok := MessageFlags(buf)
		if !ok {
			t.Fatalf("%s: MessageFlags rejected a valid frame", tc.typ)
		}
		if got := flags&FlagIdempotent != 0; got != tc.idem {
			t.Errorf("%s: idempotent flag = %v, want %v", tc.typ, got, tc.idem)
		}
		if flags&FlagResponse != 0 {
			t.Errorf("%s: request frame carries response flag", tc.typ)
		}
		// Decoding a request frame as a response must fail, and vice versa.
		var resp Response
		if _, err := bin.DecodeResponse(buf, &resp); err == nil {
			t.Errorf("%s: request frame decoded as response", tc.typ)
		}
	}
	rbuf, err := bin.AppendResponse(nil, 1, &Response{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if _, err := bin.DecodeRequest(rbuf, &req); err == nil {
		t.Error("response frame decoded as request")
	}
	if _, ok := MessageFlags([]byte("{\"type\":\"join\"}")); ok {
		t.Error("MessageFlags accepted a JSON message")
	}
	if !IsBinary(rbuf) {
		t.Error("IsBinary rejected a binary frame")
	}
	if IsBinary([]byte("{")) {
		t.Error("IsBinary accepted JSON")
	}
}

// TestBinaryCRCRejectsEveryByteFlip corrupts each byte of a frame in
// turn; the CRC32C trailer (or a header check) must reject all of
// them — no corrupted frame may decode successfully.
func TestBinaryCRCRejectsEveryByteFlip(t *testing.T) {
	bin := NewBinary()
	req := sampleRequests()[4] // the big select request
	buf, err := bin.AppendRequest(nil, 42, &req)
	if err != nil {
		t.Fatal(err)
	}
	var dst Request
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xA5
		if _, err := bin.DecodeRequest(mut, &dst); err == nil {
			t.Fatalf("byte %d/%d: corrupted frame decoded cleanly", i, len(buf))
		}
	}
}

// TestBinaryTruncationRejected: every strict prefix must error, never
// panic or return a bogus struct.
func TestBinaryTruncationRejected(t *testing.T) {
	bin := NewBinary()
	resp := sampleResponses()[4]
	buf, err := bin.AppendResponse(nil, 3, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var dst Response
	for n := 0; n < len(buf); n++ {
		if _, err := bin.DecodeResponse(buf[:n], &dst); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(buf))
		}
	}
}

// TestReadFrame streams several frames through one bufio.Reader and
// checks each is returned whole, with buffer reuse across reads.
func TestReadFrame(t *testing.T) {
	bin := NewBinary()
	var stream []byte
	reqs := sampleRequests()
	for i := range reqs {
		var err error
		stream, err = bin.AppendRequest(stream, uint64(i), &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i := range reqs {
		var err error
		buf, err = ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got Request
		id, err := bin.DecodeRequest(buf, &got)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if id != uint64(i) {
			t.Fatalf("frame %d: reqID %d", i, id)
		}
	}
	if _, err := ReadFrame(br, buf); err == nil {
		t.Fatal("ReadFrame at EOF succeeded")
	}
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader("{\"type\":\"join\"}\n")), nil); err != ErrMagic {
		t.Fatalf("ReadFrame on JSON: err = %v, want ErrMagic", err)
	}
}

// TestBinaryWireSize pins the headline claim: binary select/offer
// payloads are at least 2× smaller than their JSON form.
func TestBinaryWireSize(t *testing.T) {
	bin := NewBinary()
	js := JSON{}
	req := sampleRequests()[4]
	jb, _ := js.AppendRequest(nil, 1, &req)
	bb, err := bin.AppendRequest(nil, 1, &req)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb)*2 > len(jb) {
		t.Errorf("select request: binary %dB vs JSON %dB — want ≥2× smaller", len(bb), len(jb))
	}
	resp := sampleResponses()[2]
	jr, _ := js.AppendResponse(nil, 1, &resp)
	brv, err := bin.AppendResponse(nil, 1, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(brv)*2 > len(jr) {
		t.Errorf("offers response: binary %dB vs JSON %dB — want ≥2× smaller", len(brv), len(jr))
	}
}

// TestBinarySteadyStateAllocs pins the wire plane's per-message paths at
// zero allocations after warm-up, so one added allocation fails: encode
// and decode of a select request (instances, parameters, a two-key
// candidate map, a chain), of an aggregate request (the serving tail's
// flag bytes), of an offers reply and of a hops reply, the
// UDP datagram framing both ways, and a warm pooled-buffer checkout.
func TestBinarySteadyStateAllocs(t *testing.T) {
	bin := NewBinary()
	reqs, resps := sampleRequests(), sampleResponses()
	var buf []byte
	var dreq Request
	var dresp Response
	roundTrip := func(req *Request, resp *Response) func() {
		return func() {
			var err error
			if req != nil {
				if buf, err = bin.AppendRequest(buf[:0], 1, req); err == nil {
					_, err = bin.DecodeRequest(buf, &dreq)
				}
			} else if buf, err = bin.AppendResponse(buf[:0], 1, resp); err == nil {
				_, err = bin.DecodeResponse(buf, &dresp)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pkt := Packet{Type: PktData, MsgID: 42, FragIdx: 1, FragCount: 3, Payload: bytes.Repeat([]byte{7}, 900)}
	var parsed Packet
	for _, c := range []struct {
		name string
		run  func()
		pool bool // a sync.Pool drops items at random under -race
	}{
		{name: "select request", run: roundTrip(&reqs[4], nil)},
		{name: "aggregate request", run: roundTrip(&reqs[11], nil)},
		{name: "offers response", run: roundTrip(nil, &resps[2])},
		{name: "hops response", run: roundTrip(nil, &resps[4])},
		{name: "packet", run: func() {
			buf = AppendPacket(buf[:0], &pkt)
			if err := ParsePacket(buf, &parsed); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "GetBuf", pool: true, run: func() { PutBuf(GetBuf(4096)) }},
	} {
		if c.pool && raceEnabled {
			continue
		}
		for i := 0; i < 4; i++ {
			c.run() // grow buffers, populate the intern table and reuse capacity
		}
		if allocs := testing.AllocsPerRun(200, c.run); allocs != 0 {
			t.Errorf("steady-state %s allocates %.1f/op, want 0", c.name, allocs)
		}
	}
}

// TestBufPool exercises the length-classed slab pool invariants.
func TestBufPool(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 4096, 65536, 1 << 20} {
		b := GetBuf(n)
		if cap(b.B) < n {
			t.Fatalf("GetBuf(%d): cap %d", n, cap(b.B))
		}
		if len(b.B) != 0 {
			t.Fatalf("GetBuf(%d): len %d, want 0", n, len(b.B))
		}
		PutBuf(b)
	}
	// Oversize buffers are off-pool but PutBuf still accepts them.
	big := GetBuf(2 << 20)
	if cap(big.B) < 2<<20 {
		t.Fatal("oversize GetBuf under-allocated")
	}
	PutBuf(big)
	PutBuf(nil) // must not panic
	// A buffer that grew past its class migrates upward: after PutBuf
	// it must only ever be handed out by a class its capacity covers.
	b := GetBuf(100)
	b.B = append(b.B[:0], make([]byte, 9000)...)
	PutBuf(b)
	got := GetBuf(8000) // 64 KiB class
	if cap(got.B) < 8000 {
		t.Fatalf("re-homed buffer violates class invariant: cap %d", cap(got.B))
	}
	PutBuf(got)
}

// TestPacketRoundTrip covers the datagram framing and its guards.
func TestPacketRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 900)
	p := Packet{Type: PktData, Flags: 0, MsgID: 0xDEADBEEFCAFE, FragIdx: 2, FragCount: 5, Payload: payload}
	buf := AppendPacket(nil, &p)
	if len(buf) != len(payload)+PacketOverhead {
		t.Fatalf("packet length %d, want %d", len(buf), len(payload)+PacketOverhead)
	}
	var got Packet
	if err := ParsePacket(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.MsgID != p.MsgID || got.FragIdx != 2 || got.FragCount != 5 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("packet round-trip mismatch: %+v", got)
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x5A
		if err := ParsePacket(mut, &got); err == nil {
			t.Fatalf("byte %d: corrupted packet parsed cleanly", i)
		}
	}
	for n := 0; n < len(buf); n++ {
		if err := ParsePacket(buf[:n], &got); err == nil {
			t.Fatalf("truncated packet (%d bytes) parsed cleanly", n)
		}
	}
	// Acks have no fragment numbering.
	ack := AppendPacket(nil, &Packet{Type: PktAck, Flags: AckOfResponse, MsgID: 7})
	if err := ParsePacket(ack, &got); err != nil {
		t.Fatalf("ack parse: %v", err)
	}
	if got.Type != PktAck || got.Flags&AckOfResponse == 0 || len(got.Payload) != 0 {
		t.Fatalf("ack round-trip mismatch: %+v", got)
	}
	// Data packets with bogus fragment numbering are rejected.
	bad := AppendPacket(nil, &Packet{Type: PktData, MsgID: 1, FragIdx: 5, FragCount: 5, Payload: []byte("x")})
	if err := ParsePacket(bad, &got); err != ErrPacketFrag {
		t.Fatalf("bad frag numbering: err = %v, want ErrPacketFrag", err)
	}
}

func TestFragments(t *testing.T) {
	usable := 1200 - PacketOverhead
	for _, tc := range []struct {
		msgLen, mtu, want int
	}{
		{0, 1200, 1},
		{1, 1200, 1},
		{usable, 1200, 1},
		{usable + 1, 1200, 2},
		{10 * usable, 1200, 10},
		{1, PacketOverhead, 0}, // no usable payload
		{1 << 30, 1200, 0},     // too many fragments for uint16
		{100, MinMTU, 100/(MinMTU-PacketOverhead) + 1},
	} {
		if got := Fragments(tc.msgLen, tc.mtu); got != tc.want {
			t.Errorf("Fragments(%d, %d) = %d, want %d", tc.msgLen, tc.mtu, got, tc.want)
		}
	}
}

// TestInternTableBounded fills the intern table past its cap and
// checks it resets rather than growing without bound.
func TestInternTableBounded(t *testing.T) {
	bin := NewBinary()
	var buf []byte
	var dst Request
	for i := 0; i < maxIntern+100; i++ {
		req := Request{Type: TypeJoin, Addr: "peer-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + itoa(i)}
		var err error
		buf, err = bin.AppendRequest(buf[:0], uint64(i), &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bin.DecodeRequest(buf, &dst); err != nil {
			t.Fatal(err)
		}
		if dst.Addr != req.Addr {
			t.Fatalf("intern corrupted string: %q != %q", dst.Addr, req.Addr)
		}
	}
	if len(bin.tab) > maxIntern {
		t.Fatalf("intern table grew to %d entries (cap %d)", len(bin.tab), maxIntern)
	}
	// Long strings are decoded correctly but never interned.
	long := strings.Repeat("L", maxInternLen+1)
	b2 := NewBinary()
	buf, err := b2.AppendRequest(buf[:0], 1, &Request{Type: TypeJoin, Addr: long})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.DecodeRequest(buf, &dst); err != nil || dst.Addr != long {
		t.Fatalf("long string decode: %v", err)
	}
	if _, ok := b2.tab[long]; ok {
		t.Fatal("over-length string was interned")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
