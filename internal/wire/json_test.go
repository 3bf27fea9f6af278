package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// encoding/json is the reference for the JSON codec in both directions.
// The permitted divergences, all on inputs Unmarshal rejects too:
//   - the error values and their text differ;
//   - after an error the destination's contents are unspecified (the
//     codec stops at the first bad value, Unmarshal keeps going).
// On every input the codec and Unmarshal agree on error versus no error,
// and without an error they build deeply equal structs.

// splitmix is a tiny deterministic generator for the randomized cases.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// hardStrings exercise every escaping rule of the encoder and every
// repair of the decoder.
var hardStrings = []string{
	"", "svc0#0", "127.0.0.1:9001",
	"<script>alert('x') && 1 > 0</script>",
	"quote\" backslash\\ slash/",
	"\b\f\n\r\t\x00\x01\x1f\x7f",
	"line\u2028para\u2029end",
	"invalid \xff\xfe utf8 \xc3",
	"\xed\xa0\x80 encoded surrogate",
	"emoji \U0001F600 caf\u00e9 \u017f \u212a \ufffd",
	strings.Repeat("long-", 40),
}

// hardFloats straddle the ES6 format switch at 1e-6 and 1e21, the
// encoder's integer shortcut below 1e15, and the extremes of float64.
var hardFloats = []float64{
	1, -1, 0.5, 0.1, 1.0 / 3, 21.5, 40, 1e-6, 9.999999999999999e-7, 1e-7,
	1.5e-9, 1e20, 1e21, 999999999999999900000, 1.5e300, 5e-324,
	math.MaxFloat64, -math.SmallestNonzeroFloat64, 1 << 53, 1<<53 + 2,
	123456789.125, -0.000123, math.Copysign(0, -1), 999999999999999, -999999999999999,
	1e15, 1e15 + 1, -1 << 63,
}

func (s *splitmix) str() string {
	if s.intn(3) == 0 {
		b := make([]byte, s.intn(12))
		for i := range b {
			b[i] = byte(s.next())
		}
		return string(b)
	}
	return hardStrings[s.intn(len(hardStrings))]
}

func (s *splitmix) float() float64 {
	switch s.intn(5) {
	case 0:
		return 0
	case 1:
		if f := math.Float64frombits(s.next()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	case 2:
		return float64(int64(s.next()) >> s.intn(64)) // integral, any magnitude
	}
	return hardFloats[s.intn(len(hardFloats))]
}

func (s *splitmix) int() int {
	switch s.intn(4) {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	}
	return int(int32(s.next()))
}

// strs returns nil, an empty slice or a few strings.
func (s *splitmix) strs() []string {
	switch s.intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+s.intn(3))
	for i := range out {
		out[i] = s.str()
	}
	return out
}

func (s *splitmix) params() []Param {
	switch s.intn(4) {
	case 0:
		return nil
	case 1:
		return []Param{}
	}
	out := make([]Param, 1+s.intn(3))
	for i := range out {
		out[i] = Param{Name: s.str(), Lo: s.float(), Hi: s.float()}
		if s.intn(2) == 0 {
			out[i].Sym = s.str()
		}
	}
	return out
}

func (s *splitmix) instance() Instance {
	return Instance{ID: s.str(), Service: s.str(), Qin: s.params(), Qout: s.params(),
		CPU: s.float(), Memory: s.float(), Kbps: s.float()}
}

func (s *splitmix) request() Request {
	r := Request{Type: s.str(), Addr: s.str(), Service: s.str(), Idx: s.int(), Chain: s.strs(),
		UserAddr: s.str(), Trace: s.intn(2) == 0, SessionID: s.str(), InstanceID: s.str(),
		CPU: s.float(), Memory: s.float(), DurationSec: s.float(), TraceID: s.next() >> s.intn(64),
		SpanID: s.next() >> s.intn(64), Services: s.strs(), MinRate: s.float(), Priority: s.int(),
		Deadline: s.float(), DTolerant: s.intn(2) == 0}
	if s.intn(2) == 0 {
		r.Type = []string{TypeLookup, TypeSelect, TypeReserve}[s.intn(3)]
	}
	if n := s.intn(4); n > 0 {
		r.Instances = make([]Instance, n-1)
		for i := range r.Instances {
			r.Instances[i] = s.instance()
		}
	}
	switch s.intn(3) {
	case 1:
		r.Candidates = map[string][]string{}
	case 2:
		r.Candidates = map[string][]string{}
		for i := s.intn(5); i >= 0; i-- {
			r.Candidates[s.str()] = s.strs()
		}
	}
	return r
}

func (s *splitmix) response() Response {
	r := Response{OK: s.intn(2) == 0, Err: s.str(), Members: s.strs(), UptimeSec: s.float(),
		Chain: s.strs(), SessionID: s.str(), Cost: s.float(), Shed: s.intn(2) == 0,
		RetryAfterSec: s.float()}
	for i := s.intn(3); i > 0; i-- {
		r.Offers = append(r.Offers, Offer{Instance: s.instance(), Provider: s.str()})
	}
	for i := s.intn(3); i > 0; i-- {
		r.Avail = append(r.Avail, s.float())
	}
	for i := s.intn(3); i > 0; i-- {
		h := Hop{Idx: s.int(), At: s.str(), Inst: s.str(), Chosen: s.str(), Mode: s.str()}
		for j := s.intn(3); j > 0; j-- {
			h.Cands = append(h.Cands, Cand{Addr: s.str(), Phi: s.float(), Reason: s.str()})
		}
		r.Hops = append(r.Hops, h)
	}
	return r
}

// marshalLine is the reference encoding: json.Marshal plus the newline.
func marshalLine(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// TestJSONMatchesEncodingJSON: randomized messages encode to
// encoding/json's bytes and decode to Unmarshal's structs.
func TestJSONMatchesEncodingJSON(t *testing.T) {
	rng := splitmix(1)
	n := 3000
	if testing.Short() {
		n = 600
	}
	for i := 0; i < n; i++ {
		req := rng.request()
		want := marshalLine(t, &req)
		got, err := JSON{}.AppendRequest([]byte("prefix"), 0, &req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("request %d: encoding differs\ngot  %q\nwant %q", i, got[len("prefix"):], want)
		}
		checkDecode(t, want)

		resp := rng.response()
		want = marshalLine(t, &resp)
		got, err = JSON{}.AppendResponse(nil, 0, &resp)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("response %d: encoding differs\ngot  %q\nwant %q", i, got, want)
		}
		checkDecode(t, want)
	}
}

// TestJSONRejectsNonFiniteFloats: NaN and ±Inf fail the encode, as they
// fail json.Marshal, and leave dst as it was.
func TestJSONRejectsNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := Request{Type: TypeReserve, CPU: f}
		if _, err := json.Marshal(&req); err == nil {
			t.Fatalf("json.Marshal accepted %v", f)
		}
		dst, err := JSON{}.AppendRequest([]byte("kept"), 0, &req)
		if err == nil || string(dst) != "kept" {
			t.Fatalf("request with %v: dst %q, err %v", f, dst, err)
		}
		resp := Response{OK: true, Offers: []Offer{{Instance: Instance{Kbps: f}}}}
		if _, err := (JSON{}).AppendResponse(nil, 0, &resp); err == nil {
			t.Fatalf("response with %v encoded", f)
		}
	}
}

// checkDecode decodes data as a request and as a response with both
// codecs and fails on any disagreement. Whatever decodes cleanly must
// also re-encode to encoding/json's bytes.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var wantReq, gotReq Request
	wantErr := json.Unmarshal(data, &wantReq)
	_, gotErr := JSON{}.DecodeRequest(data, &gotReq)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("request %q: encoding/json err %v, codec err %v", data, wantErr, gotErr)
	}
	if wantErr == nil {
		if !reflect.DeepEqual(gotReq, wantReq) {
			t.Fatalf("request %q decoded differently\ngot  %#v\nwant %#v", data, gotReq, wantReq)
		}
		if got, _ := (JSON{}).AppendRequest(nil, 0, &gotReq); !bytes.Equal(got, marshalLine(t, &wantReq)) {
			t.Fatalf("request %q re-encodes differently: %q", data, got)
		}
	}
	var wantResp, gotResp Response
	wantErr = json.Unmarshal(data, &wantResp)
	_, gotErr = JSON{}.DecodeResponse(data, &gotResp)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("response %q: encoding/json err %v, codec err %v", data, wantErr, gotErr)
	}
	if wantErr == nil {
		if !reflect.DeepEqual(gotResp, wantResp) {
			t.Fatalf("response %q decoded differently\ngot  %#v\nwant %#v", data, gotResp, wantResp)
		}
		if got, _ := (JSON{}).AppendResponse(nil, 0, &gotResp); !bytes.Equal(got, marshalLine(t, &wantResp)) {
			t.Fatalf("response %q re-encodes differently: %q", data, got)
		}
	}
}

// FuzzJSONDecode: on arbitrary bytes the codec and encoding/json agree
// on error versus no error and on the decoded struct. The committed
// corpus in testdata/fuzz/FuzzJSONDecode holds the hand-picked edge
// cases: case-folded names, repeated members, null, unknown members,
// UTF-8 repair, surrogates, number ranges and syntax errors.
func FuzzJSONDecode(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(marshalLine(f, &req))
	}
	for _, resp := range sampleResponses() {
		f.Add(marshalLine(f, &resp))
	}
	// The nesting bound: 10 000 open containers pass, one more fails.
	for _, n := range []int{maxJSONDepth - 1, maxJSONDepth} {
		f.Add([]byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// TestJSONDecodeIntoDirtyStructs: decoding resets the destination, so a
// struct that held one message decodes the next as a fresh one would.
func TestJSONDecodeIntoDirtyStructs(t *testing.T) {
	reqs, resps := sampleRequests(), sampleResponses()
	var dirtyReq Request
	for i := range reqs {
		line := marshalLine(t, &reqs[i])
		var fresh Request
		if _, err := (JSON{}).DecodeRequest(line, &fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := (JSON{}).DecodeRequest(line, &dirtyReq); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, dirtyReq) {
			t.Fatalf("request %d: dirty decode diverged", i)
		}
	}
	var dirtyResp Response
	for i := range resps {
		line := marshalLine(t, &resps[i])
		var fresh Response
		if _, err := (JSON{}).DecodeResponse(line, &fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := (JSON{}).DecodeResponse(line, &dirtyResp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, dirtyResp) {
			t.Fatalf("response %d: dirty decode diverged", i)
		}
	}
}

// workloadMessages are shaped like the wire_flood_32 workload's payload:
// a lookup response with one offer, and the select request naming a
// three-service path with two candidate providers per instance.
func workloadMessages() (*Request, *Response) {
	inst := Instance{ID: "svc0#0", Service: "svc0",
		Qin:  []Param{{Name: "format", Sym: "F0"}, {Name: "rate", Hi: 40}},
		Qout: []Param{{Name: "format", Sym: "F1"}, {Name: "rate", Lo: 21.5, Hi: 24}},
		CPU:  5, Memory: 5, Kbps: 50}
	resp := &Response{OK: true, Offers: []Offer{{Instance: inst, Provider: "127.0.0.1:40001"}}}
	req := &Request{Type: TypeSelect, Idx: 2, UserAddr: "127.0.0.1:40000", DurationSec: 0.02,
		Candidates: map[string][]string{}}
	for s, id := range []string{"svc0#0", "svc1#0", "svc2#0"} {
		in := inst
		in.ID, in.Service = id, "svc"+itoa(s)
		req.Instances = append(req.Instances, in)
		req.Candidates[id] = []string{"127.0.0.1:40001", "127.0.0.1:40002"}
	}
	return req, resp
}

// TestJSONEncodeAllocs: encoding the workload's messages into a warm
// buffer allocates nothing (json.Marshal allocates on every call).
// ci.sh gates on this test.
func TestJSONEncodeAllocs(t *testing.T) {
	req, resp := workloadMessages()
	var buf []byte
	var err error
	for i := 0; i < 2; i++ {
		if buf, err = (JSON{}).AppendRequest(buf[:0], 0, req); err != nil {
			t.Fatal(err)
		}
		if buf, err = (JSON{}).AppendResponse(buf[:0], 0, resp); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf, _ = (JSON{}).AppendRequest(buf[:0], 0, req)
		buf, _ = (JSON{}).AppendResponse(buf[:0], 0, resp)
	})
	if allocs != 0 {
		t.Fatalf("warm encode allocates %.1f/op, want 0", allocs)
	}
}

// TestReadLine covers the line reader's bound and its end-of-stream
// cases.
func TestReadLine(t *testing.T) {
	stream := "first\n" + strings.Repeat("x", MaxLine-1) + "\nlast"
	br := bufio.NewReaderSize(strings.NewReader(stream), 4<<10)
	var buf []byte
	for _, want := range []int{6, MaxLine, 4} {
		var err error
		if buf, err = ReadLine(br, buf); err != nil || len(buf) != want {
			t.Fatalf("line of %d bytes: got %d, %v", want, len(buf), err)
		}
	}
	if _, err := ReadLine(br, buf); err == nil {
		t.Fatal("ReadLine at EOF succeeded")
	}
	if _, err := ReadLine(bufio.NewReader(strings.NewReader(strings.Repeat("x", MaxLine)+"\n")), nil); err != ErrLineTooLong {
		t.Fatalf("line of MaxLine+1 bytes: err = %v, want ErrLineTooLong", err)
	}
}

// TestParseFloat: the conversion agrees bit for bit with
// strconv.ParseFloat on every number it accepts, including exact ties,
// and accepts every number of at most 15 digits.
func TestParseFloat(t *testing.T) {
	rng := splitmix(7)
	check := func(num string) {
		t.Helper()
		want, err := strconv.ParseFloat(num, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseFloat([]byte(num))
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v, ParseFloat %v", num, got, want)
		}
		if digits := strings.NewReplacer("-", "", ".", "").Replace(num); !ok && len(digits) <= 15 {
			t.Fatalf("%s: declined a short number", num)
		}
	}
	// point places a decimal point scale digits from the right of digits.
	point := func(digits string, scale int) string {
		for len(digits) <= scale {
			digits = "0" + digits
		}
		if scale == 0 {
			return digits
		}
		return digits[:len(digits)-scale] + "." + digits[len(digits)-scale:]
	}
	for i := 0; i < 200000; i++ {
		sign := []string{"", "-"}[rng.intn(2)]
		// Random digits at every length and scale.
		digits := strconv.FormatUint(rng.next()%pow10[1+rng.intn(19)], 10)
		check(sign + point(digits, rng.intn(len(digits)+1)))
		// Shortest forms of random floats, as the encoder writes them.
		f := math.Float64frombits(rng.next()>>2 | 0x3f00000000000000) // about 2^-15 … 2^766
		check(sign + strconv.FormatFloat(f/float64(uint64(1)<<rng.intn(60)), 'f', -1, 64))
		// Exact halfway points between neighbouring floats: (2m+1)/2^j.
		m := uint64(1)<<52 | rng.next()>>12
		j := rng.intn(3)
		check(sign + point(strconv.FormatUint((2*m+1)*[]uint64{1, 5, 25}[j], 10), j))
	}
	for _, num := range []string{"1e5", "1.5E-3", "12345678901234567890", "0.0000000000000001234"} {
		if _, ok := parseFloat([]byte(num)); ok {
			t.Fatalf("%s: accepted", num)
		}
	}
}
