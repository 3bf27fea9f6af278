package wire

import (
	"bufio"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sync"
)

// Binary frame layout (little-endian throughout):
//
//	offset 0..1   magic "QS" (0x51 0x53) — first byte ≠ '{' is what
//	              lets a server tell binary from JSON without config
//	offset 2      version (currently 1)
//	offset 3      message kind (Kind*; KindOther carries the string)
//	offset 4      flags (response / idempotent / ok / trace / trace-ctx /
//	              serving)
//	offset 5..12  request correlation ID, uint64
//	offset 13..   body length as uvarint, then the body
//	last 4 bytes  CRC32C (Castagnoli) of everything preceding
//
// Body fields are fixed-order per struct: strings are uvarint length +
// bytes, integers are zigzag varints, floats are the uvarint of their
// byte-reversed IEEE 754 bits (see appendF64), sequences are a count
// prefix. Sequences whose JSON tag has omitempty use a plain count
// (JSON cannot distinguish nil from empty there either); the nested
// always-present sequences (Instance.Qin/Qout, candidate provider
// lists) use count+1 with 0 meaning nil, so binary and JSON decode to
// identical structs — the cross-codec differential test pins this.
// Requests carrying causal trace context append (TraceID, SpanID)
// uvarints after every other body field, gated by FlagTraceCtx.
const (
	magic0     = 0x51 // 'Q'
	magic1     = 0x53 // 'S'
	binVersion = 1

	offVersion = 2
	offKind    = 3
	offFlags   = 4
	offReqID   = 5

	// HeaderSize is the fixed binary header length in bytes.
	HeaderSize = 13

	crcSize  = 4
	minFrame = HeaderSize + 1 + crcSize // empty body, 1-byte length
)

// Header flag bits.
const (
	// FlagResponse marks a frame as a reply envelope.
	FlagResponse byte = 1 << 0
	// FlagIdempotent marks a request safe to retransmit; the UDP
	// transport reads it straight off the raw bytes (MessageFlags).
	FlagIdempotent byte = 1 << 1

	flagOK    byte = 1 << 2
	flagTrace byte = 1 << 3

	// FlagTraceCtx marks a request whose body tail carries the causal
	// trace context (TraceID, SpanID uvarints appended after every other
	// field). Gating the extension behind a flag keeps old frames
	// byte-identical; a decoder built without the flag rejects extended
	// frames as trailing bytes, and the documented rollback remains the
	// JSON codec, which ignores unknown fields (DESIGN §12).
	FlagTraceCtx byte = 1 << 4

	// FlagServing marks a frame whose body tail carries the serving-plane
	// fields (lookup/aggregate path, priority, deadline, shed/retry-after
	// — DESIGN §14), appended after the trace-context tail. Same
	// extension discipline as FlagTraceCtx: frames without serving fields
	// stay byte-identical to the pre-extension format. A request's tail
	// ends with one zero byte, the count of a retired announcement batch;
	// the decoder rejects any other value.
	FlagServing byte = 1 << 5

	// flagCompressed marked a flate-compressed body, a retired extension:
	// the decoder rejects such frames rather than parse deflate bytes as
	// a plain body. Bit 7 once advertised the ability to inflate replies;
	// it is ignored.
	flagCompressed byte = 1 << 6
)

// MaxMessage bounds one framed message (body + envelope). Anything
// larger is a protocol error — decoders reject it before allocating.
const MaxMessage = 16 << 20

// Binary decode/validation errors. They are sentinels so the
// steady-state decode path never formats error strings.
var (
	ErrMagic     = errors.New("wire: bad magic (not a binary frame)")
	ErrVersion   = errors.New("wire: unsupported binary version")
	ErrCRC       = errors.New("wire: CRC32C mismatch (corrupt frame)")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrTooLarge  = errors.New("wire: message exceeds MaxMessage")
	errEnvelope  = errors.New("wire: frame/role mismatch (request vs response)")
	errTrailing  = errors.New("wire: trailing bytes after body")
	errRetired   = errors.New("wire: frame uses a retired extension (compressed body or announcement batch)")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsBinary reports whether b starts like a binary frame (the
// negotiation byte check a server does before choosing a decoder).
func IsBinary(b []byte) bool {
	return len(b) >= 1 && b[0] == magic0
}

// MessageFlags returns the header flag byte of a framed binary
// message without decoding it (false when b is not a binary frame).
// The UDP transport uses this to learn whether a message it is about
// to send may be retransmitted.
func MessageFlags(b []byte) (byte, bool) {
	if len(b) < HeaderSize || b[0] != magic0 || b[1] != magic1 || b[offVersion] != binVersion {
		return 0, false
	}
	return b[offFlags], true
}

// maxIntern bounds the decode-side string table; maxInternLen bounds
// which strings are worth remembering (peer addresses, instance IDs,
// service names — the identities that repeat every request).
const (
	maxIntern    = 4096
	maxInternLen = 64
)

// Binary is the production codec. One instance serializes its
// encode/decode calls behind a mutex: that keeps the intern table and
// the reuse scratch free of finer-grained locking, and a full
// encode or decode is microseconds of pure CPU, far below the network
// time it sits behind. Create with NewBinary; each peer owns one.
type Binary struct {
	mu       sync.Mutex
	tab      map[string]string // decode-side intern table
	keys     []string          // encode scratch: sorted candidate keys
	candFree [][]string        // decode scratch: recycled provider lists
}

// NewBinary returns a ready codec with an empty intern table.
func NewBinary() *Binary {
	return &Binary{tab: make(map[string]string, 256)}
}

// Name implements Codec.
func (*Binary) Name() string { return "binary" }

// intern returns a stable string for the byte content, allocating
// only the first time an identity is seen. The map lookup keyed by
// string(b) is the compiler-recognized no-allocation form.
func (c *Binary) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	// lint:allow hotalloc map lookup keyed by string(b) is the compiler-optimized non-allocating form
	if s, ok := c.tab[string(b)]; ok {
		return s
	}
	return c.internMiss(b)
}

// internMiss materializes a string on first sight and remembers it
// when it looks like a repeating identity. A full table is reset
// wholesale: cheap, amortized, and it re-adapts to the current
// working set instead of growing without bound.
//
// lint:coldpath first-sight string materialization; the steady state hits the intern table
func (c *Binary) internMiss(b []byte) string {
	s := string(b)
	if len(s) <= maxInternLen {
		if len(c.tab) >= maxIntern {
			clear(c.tab)
		}
		c.tab[s] = s
	}
	return s
}

// --- primitive appenders ---------------------------------------------------

// lint:hotpath varint append is the innermost encode primitive
func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	b = append(b, byte(x))
	return b
}

// lint:hotpath zigzag append sits under every integer field encode
func appendZigzag(b []byte, x int) []byte {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return appendUvarint(b, ux)
}

// lint:hotpath string append sits under every identity field encode
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	b = append(b, s...)
	return b
}

// appendF64 encodes a float as the uvarint of its byte-reversed IEEE
// bits: real-world QoS values (rates, megabytes, seconds) have mostly
// zero mantissa tails, which byte reversal turns into leading zeros
// the varint drops — 512.0 costs 3 bytes instead of 8. Lossless for
// every bit pattern (reversal is a bijection), worst case 10 bytes.
//
// lint:hotpath float append sits under every float field encode
func appendF64(b []byte, f float64) []byte {
	return appendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// appendSeqLen encodes a count for a nil-preserving sequence:
// 0 = nil, n+1 = n elements.
func appendSeqLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return appendUvarint(b, 0)
	}
	return appendUvarint(b, uint64(n)+1)
}

// --- reader ----------------------------------------------------------------

// reader is a bounds-checked cursor over a frame body. Overruns set
// fail instead of returning errors so the field decoders stay
// branch-light; the caller checks fail once at the end.
type reader struct {
	data []byte
	pos  int
	fail bool
}

func (r *reader) remaining() int { return len(r.data) - r.pos }

// lint:hotpath single-byte read sits under every flag-byte field decode
func (r *reader) byte() byte {
	if r.pos >= len(r.data) {
		r.fail = true
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// lint:hotpath varint read is the innermost decode primitive
func (r *reader) uvarint() uint64 {
	var x uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if r.pos >= len(r.data) {
			r.fail = true
			return 0
		}
		c := r.data[r.pos]
		r.pos++
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
		shift += 7
	}
	r.fail = true
	return 0
}

// lint:hotpath zigzag read sits under every integer field decode
func (r *reader) zigzag() int {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return int(x)
}

// lint:hotpath float read sits under every float field decode
func (r *reader) f64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

// bytes returns the next length-prefixed byte run, aliasing the frame
// buffer — callers must copy (intern does) before the buffer recycles.
//
// lint:hotpath length-prefixed read sits under every string field decode
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.fail || n > uint64(r.remaining()) {
		r.fail = true
		return nil
	}
	out := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out
}

// count reads a plain sequence count, rejecting counts that could not
// possibly fit in the remaining bytes (minSize is the smallest
// encodable element) — the anti-OOM guard for hostile frames.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if r.fail || n > uint64(r.remaining()/minSize) {
		r.fail = true
		return 0
	}
	return int(n)
}

// seqLen reads a nil-preserving count (see appendSeqLen).
func (r *reader) seqLen(minSize int) (n int, isNil bool) {
	v := r.uvarint()
	if r.fail {
		return 0, true
	}
	if v == 0 {
		return 0, true
	}
	v--
	if v > uint64(r.remaining()/minSize) {
		r.fail = true
		return 0, true
	}
	return int(v), false
}

// --- framing ---------------------------------------------------------------

// appendHeader writes the fixed header with a zero length slot — the
// caller patches the length and CRC via finishFrame.
func appendHeader(b []byte, kind, flags byte, reqID uint64) []byte {
	b = append(b, magic0, magic1, binVersion, kind, flags,
		byte(reqID), byte(reqID>>8), byte(reqID>>16), byte(reqID>>24),
		byte(reqID>>32), byte(reqID>>40), byte(reqID>>48), byte(reqID>>56))
	return b
}

// finishFrame splices the uvarint body length between header and body
// and appends the CRC32C trailer. start is len(dst) before the header
// was appended; bodyStart is len(dst) just after the header.
func finishFrame(dst []byte, start, bodyStart int) ([]byte, error) {
	bodyLen := len(dst) - bodyStart
	if bodyLen > MaxMessage {
		return dst, ErrTooLarge
	}
	// Encode the length, then shift the body right by its width. The
	// shift copies within the same backing array; steady-state bodies
	// are small enough that this beats a second buffer.
	var lenBuf [10]byte
	n := 0
	{
		x := uint64(bodyLen)
		for x >= 0x80 {
			lenBuf[n] = byte(x) | 0x80
			x >>= 7
			n++
		}
		lenBuf[n] = byte(x)
		n++
	}
	dst = append(dst, lenBuf[:n]...) // grow by the shift width
	copy(dst[bodyStart+n:], dst[bodyStart:len(dst)-n])
	copy(dst[bodyStart:], lenBuf[:n])
	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = append(dst, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	return dst, nil
}

// openFrame validates magic, version and CRC and returns the header
// flag byte, request ID and body bytes.
func openFrame(data []byte) (kind, flags byte, reqID uint64, body []byte, err error) {
	if len(data) < minFrame {
		return 0, 0, 0, nil, ErrTruncated
	}
	if data[0] != magic0 || data[1] != magic1 {
		return 0, 0, 0, nil, ErrMagic
	}
	if data[offVersion] != binVersion {
		return 0, 0, 0, nil, ErrVersion
	}
	if len(data) > MaxMessage+HeaderSize+crcSize+10 {
		return 0, 0, 0, nil, ErrTooLarge
	}
	payloadEnd := len(data) - crcSize
	want := uint32(data[payloadEnd]) | uint32(data[payloadEnd+1])<<8 |
		uint32(data[payloadEnd+2])<<16 | uint32(data[payloadEnd+3])<<24
	if crc32.Checksum(data[:payloadEnd], castagnoli) != want {
		return 0, 0, 0, nil, ErrCRC
	}
	for i := 0; i < 8; i++ {
		reqID |= uint64(data[offReqID+i]) << (8 * i)
	}
	r := reader{data: data[:payloadEnd], pos: HeaderSize}
	bodyLen := r.uvarint()
	if r.fail || bodyLen != uint64(payloadEnd-r.pos) {
		return 0, 0, 0, nil, errTrailing
	}
	return data[offKind], data[offFlags], reqID, data[r.pos:payloadEnd], nil
}

// ReadFrame reads one binary frame from br into buf (reusing its
// capacity) and returns the full frame bytes, ready for Decode*. The
// stream position is left exactly after the frame, so frames and
// (newline-delimited) JSON messages can share a connection protocol.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) < HeaderSize {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:HeaderSize]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, err
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return buf, ErrMagic
	}
	if buf[offVersion] != binVersion {
		return buf, ErrVersion
	}
	var bodyLen uint64
	var shift uint
	for i := 0; ; i++ {
		if i >= 10 {
			return buf, ErrTooLarge
		}
		c, err := br.ReadByte()
		if err != nil {
			return buf, err
		}
		buf = append(buf, c)
		bodyLen |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
	}
	if bodyLen > MaxMessage {
		return buf, ErrTooLarge
	}
	head := len(buf)
	total := head + int(bodyLen) + crcSize
	if cap(buf) < total {
		grown := make([]byte, total)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:total]
	}
	if _, err := io.ReadFull(br, buf[head:]); err != nil {
		return buf, err
	}
	return buf, nil
}

// --- encode ----------------------------------------------------------------

// AppendRequest implements Codec: appends one framed binary request
// to dst, reusing its capacity. The steady-state path is
// allocation-free (hotalloc-gated); dst growth amortizes away once
// the buffer has seen the working set's largest message.
//
// lint:hotpath per-RPC request encode; pooled buffers keep the steady state allocation-free
func (c *Binary) AppendRequest(dst []byte, reqID uint64, req *Request) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kind := kindOf(req.Type)
	flags := byte(0)
	if Idempotent(req.Type) {
		flags |= FlagIdempotent
	}
	if req.Trace {
		flags |= flagTrace
	}
	if req.TraceID != 0 || req.SpanID != 0 {
		flags |= FlagTraceCtx
	}
	if servingRequest(req) {
		flags |= FlagServing
	}
	start := len(dst)
	dst = appendHeader(dst, kind, flags, reqID)
	bodyStart := len(dst)
	if kind == KindOther {
		dst = appendString(dst, req.Type)
	}
	dst = appendString(dst, req.Addr)
	dst = appendString(dst, req.Service)
	dst = appendString(dst, req.UserAddr)
	dst = appendString(dst, req.SessionID)
	dst = appendString(dst, req.InstanceID)
	dst = appendZigzag(dst, req.Idx)
	dst = appendF64(dst, req.CPU)
	dst = appendF64(dst, req.Memory)
	dst = appendF64(dst, req.DurationSec)
	dst = appendUvarint(dst, uint64(len(req.Instances)))
	for i := range req.Instances {
		dst = appendInstance(dst, &req.Instances[i])
	}
	dst = appendUvarint(dst, uint64(len(req.Candidates)))
	if len(req.Candidates) > 0 {
		c.keys = c.keys[:0]
		for k := range req.Candidates {
			c.keys = append(c.keys, k)
		}
		sortStrings(c.keys) // deterministic frames regardless of map order
		for _, k := range c.keys {
			dst = appendString(dst, k)
			provs := req.Candidates[k]
			dst = appendSeqLen(dst, len(provs), provs == nil)
			for _, p := range provs {
				dst = appendString(dst, p)
			}
		}
	}
	dst = appendUvarint(dst, uint64(len(req.Chain)))
	for _, s := range req.Chain {
		dst = appendString(dst, s)
	}
	// Extension tails: present only when their flag is set, so frames
	// without the extension stay byte-identical to the older format.
	if flags&FlagTraceCtx != 0 {
		dst = appendUvarint(dst, req.TraceID)
		dst = appendUvarint(dst, req.SpanID)
	}
	if flags&FlagServing != 0 {
		dst = appendUvarint(dst, uint64(len(req.Services)))
		for _, s := range req.Services {
			dst = appendString(dst, s)
		}
		dst = appendF64(dst, req.MinRate)
		dst = appendZigzag(dst, req.Priority)
		dst = appendF64(dst, req.Deadline)
		dst = append(dst, boolByte(req.DTolerant))
		dst = append(dst, 0) // retired announcement count
	}
	return finishFrame(dst, start, bodyStart)
}

// servingRequest reports whether any serving-plane request field is
// set (FlagServing travels only when the tail has content, keeping
// pre-serving frames byte-identical). The float tests compare bit
// patterns, mirroring the JSON omitempty zero test.
func servingRequest(req *Request) bool {
	return len(req.Services) > 0 || math.Float64bits(req.MinRate) != 0 ||
		req.Priority != 0 || math.Float64bits(req.Deadline) != 0 ||
		req.DTolerant
}

// servingResponse is servingRequest for the reply envelope.
func servingResponse(resp *Response) bool {
	return resp.SessionID != "" || math.Float64bits(resp.Cost) != 0 ||
		resp.Shed || math.Float64bits(resp.RetryAfterSec) != 0
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// AppendResponse implements Codec.
//
// lint:hotpath per-RPC response encode; pooled buffers keep the steady state allocation-free
func (c *Binary) AppendResponse(dst []byte, reqID uint64, resp *Response) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	flags := FlagResponse
	if resp.OK {
		flags |= flagOK
	}
	if servingResponse(resp) {
		flags |= FlagServing
	}
	start := len(dst)
	dst = appendHeader(dst, KindOther, flags, reqID)
	bodyStart := len(dst)
	dst = appendString(dst, resp.Err)
	dst = appendF64(dst, resp.UptimeSec)
	dst = appendUvarint(dst, uint64(len(resp.Members)))
	for _, s := range resp.Members {
		dst = appendString(dst, s)
	}
	dst = appendUvarint(dst, uint64(len(resp.Offers)))
	for i := range resp.Offers {
		dst = appendInstance(dst, &resp.Offers[i].Instance)
		dst = appendString(dst, resp.Offers[i].Provider)
	}
	dst = appendUvarint(dst, uint64(len(resp.Avail)))
	for _, f := range resp.Avail {
		dst = appendF64(dst, f)
	}
	dst = appendUvarint(dst, uint64(len(resp.Chain)))
	for _, s := range resp.Chain {
		dst = appendString(dst, s)
	}
	dst = appendUvarint(dst, uint64(len(resp.Hops)))
	for i := range resp.Hops {
		h := &resp.Hops[i]
		dst = appendZigzag(dst, h.Idx)
		dst = appendString(dst, h.At)
		dst = appendString(dst, h.Inst)
		dst = appendString(dst, h.Chosen)
		dst = appendString(dst, h.Mode)
		dst = appendUvarint(dst, uint64(len(h.Cands)))
		for j := range h.Cands {
			cd := &h.Cands[j]
			dst = appendString(dst, cd.Addr)
			dst = appendF64(dst, cd.Phi)
			dst = appendString(dst, cd.Reason)
		}
	}
	if flags&FlagServing != 0 {
		dst = appendString(dst, resp.SessionID)
		dst = appendF64(dst, resp.Cost)
		dst = appendF64(dst, resp.RetryAfterSec)
		dst = append(dst, boolByte(resp.Shed))
	}
	return finishFrame(dst, start, bodyStart)
}

// lint:hotpath instance encode runs per offer in every discovery reply
func appendInstance(dst []byte, in *Instance) []byte {
	dst = appendString(dst, in.ID)
	dst = appendString(dst, in.Service)
	dst = appendParams(dst, in.Qin)
	dst = appendParams(dst, in.Qout)
	dst = appendF64(dst, in.CPU)
	dst = appendF64(dst, in.Memory)
	return appendF64(dst, in.Kbps)
}

// lint:hotpath parameter-vector encode runs per instance field
func appendParams(dst []byte, ps []Param) []byte {
	dst = appendSeqLen(dst, len(ps), ps == nil)
	for i := range ps {
		dst = appendString(dst, ps[i].Name)
		dst = appendString(dst, ps[i].Sym)
		dst = appendF64(dst, ps[i].Lo)
		dst = appendF64(dst, ps[i].Hi)
	}
	return dst
}

// --- decode ----------------------------------------------------------------

// minimum encoded sizes used by the anti-OOM count guards.
const (
	minStr   = 1                       // empty string = 1 length byte
	minF64   = 1                       // varint float: 1 byte when zero
	minParam = 2*minStr + 2*minF64     // two strings + two floats
	minInst  = 2*minStr + 2 + 3*minF64 // strings + two seq counts + floats
	minCand  = 2*minStr + minF64       // addr + reason + phi
	minHop   = 1 + 4*minStr + 1        // idx + four strings + cand count
	minOffer = minInst + minStr        // instance + provider
)

// DecodeRequest implements Codec: overwrites every field of req,
// reusing its slice and map capacity, so decoding the same message
// shapes over and over settles at zero allocations per call. Strings
// are interned; nothing in req aliases data after the call returns.
//
// lint:hotpath per-RPC request decode; interning + capacity reuse keep the steady state allocation-free
func (c *Binary) DecodeRequest(data []byte, req *Request) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kind, flags, reqID, body, err := openFrame(data)
	if err != nil {
		return 0, err
	}
	if flags&FlagResponse != 0 {
		return 0, errEnvelope
	}
	if flags&flagCompressed != 0 {
		return 0, errRetired
	}
	r := reader{data: body}
	if kind == KindOther {
		req.Type = c.intern(r.bytes())
	} else {
		req.Type = typeOf(kind)
	}
	req.Trace = flags&flagTrace != 0
	req.Addr = c.intern(r.bytes())
	req.Service = c.intern(r.bytes())
	req.UserAddr = c.intern(r.bytes())
	req.SessionID = c.intern(r.bytes())
	req.InstanceID = c.intern(r.bytes())
	req.Idx = r.zigzag()
	req.CPU = r.f64()
	req.Memory = r.f64()
	req.DurationSec = r.f64()
	req.Instances = c.decodeInstances(&r, req.Instances)
	req.Candidates = c.decodeCandidates(&r, req.Candidates)
	req.Chain = c.decodeStrings(&r, req.Chain)
	if flags&FlagTraceCtx != 0 {
		req.TraceID = r.uvarint()
		req.SpanID = r.uvarint()
	} else {
		req.TraceID, req.SpanID = 0, 0
	}
	if flags&FlagServing != 0 {
		req.Services = c.decodeStrings(&r, req.Services)
		req.MinRate = r.f64()
		req.Priority = r.zigzag()
		req.Deadline = r.f64()
		req.DTolerant = r.byte() != 0
		if r.byte() != 0 {
			return 0, errRetired
		}
	} else {
		req.Services = nil
		req.MinRate, req.Priority, req.Deadline = 0, 0, 0
		req.DTolerant = false
	}
	if r.fail {
		return 0, ErrTruncated
	}
	if r.remaining() != 0 {
		return 0, errTrailing
	}
	return reqID, nil
}

// DecodeResponse implements Codec.
//
// lint:hotpath per-RPC response decode; interning + capacity reuse keep the steady state allocation-free
func (c *Binary) DecodeResponse(data []byte, resp *Response) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, flags, reqID, body, err := openFrame(data)
	if err != nil {
		return 0, err
	}
	if flags&FlagResponse == 0 {
		return 0, errEnvelope
	}
	if flags&flagCompressed != 0 {
		return 0, errRetired
	}
	r := reader{data: body}
	resp.OK = flags&flagOK != 0
	resp.Err = c.intern(r.bytes())
	resp.UptimeSec = r.f64()
	resp.Members = c.decodeStrings(&r, resp.Members)
	n := r.count(minOffer)
	if n == 0 {
		resp.Offers = nil
	} else {
		s := resp.Offers
		if cap(s) < n {
			// lint:allow hotalloc grows once per working-set-larger message shape, then reuses
			s = make([]Offer, n)
		}
		s = s[:n]
		for i := range s {
			c.decodeInstance(&r, &s[i].Instance)
			s[i].Provider = c.intern(r.bytes())
		}
		resp.Offers = s
	}
	n = r.count(minF64)
	if n == 0 {
		resp.Avail = nil
	} else {
		a := resp.Avail[:0]
		for i := 0; i < n; i++ {
			a = append(a, r.f64())
		}
		resp.Avail = a
	}
	resp.Chain = c.decodeStrings(&r, resp.Chain)
	n = r.count(minHop)
	if n == 0 {
		resp.Hops = nil
	} else {
		s := resp.Hops
		if cap(s) < n {
			// lint:allow hotalloc grows once per working-set-larger message shape, then reuses
			s = make([]Hop, n)
		}
		s = s[:n]
		for i := range s {
			h := &s[i]
			h.Idx = r.zigzag()
			h.At = c.intern(r.bytes())
			h.Inst = c.intern(r.bytes())
			h.Chosen = c.intern(r.bytes())
			h.Mode = c.intern(r.bytes())
			m := r.count(minCand)
			if m == 0 {
				h.Cands = nil
				continue
			}
			cs := h.Cands
			if cap(cs) < m {
				// lint:allow hotalloc grows once per working-set-larger message shape, then reuses
				cs = make([]Cand, m)
			}
			cs = cs[:m]
			for j := range cs {
				cs[j].Addr = c.intern(r.bytes())
				cs[j].Phi = r.f64()
				cs[j].Reason = c.intern(r.bytes())
			}
			h.Cands = cs
		}
		resp.Hops = s
	}
	if flags&FlagServing != 0 {
		resp.SessionID = c.intern(r.bytes())
		resp.Cost = r.f64()
		resp.RetryAfterSec = r.f64()
		resp.Shed = r.byte() != 0
	} else {
		resp.SessionID = ""
		resp.Cost, resp.RetryAfterSec = 0, 0
		resp.Shed = false
	}
	if r.fail {
		return 0, ErrTruncated
	}
	if r.remaining() != 0 {
		return 0, errTrailing
	}
	return reqID, nil
}

// decodeStrings reads a plain-count string sequence into dst's
// capacity (nil when empty, matching JSON omitempty round-trips).
//
// lint:hotpath string-sequence decode sits under members/chain fields
func (c *Binary) decodeStrings(r *reader, dst []string) []string {
	n := r.count(minStr)
	if n == 0 {
		return nil
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, c.intern(r.bytes()))
	}
	return dst
}

// decodeParams reads a nil-preserving Param sequence.
//
// lint:hotpath parameter-vector decode runs per instance field
func (c *Binary) decodeParams(r *reader, dst []Param) []Param {
	n, isNil := r.seqLen(minParam)
	if isNil {
		return nil
	}
	if n == 0 {
		return emptyParams
	}
	if cap(dst) < n {
		// lint:allow hotalloc grows once per working-set-larger message shape, then reuses
		dst = make([]Param, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i].Name = c.intern(r.bytes())
		dst[i].Sym = c.intern(r.bytes())
		dst[i].Lo = r.f64()
		dst[i].Hi = r.f64()
	}
	return dst
}

// lint:hotpath instance decode runs per offer in every discovery reply
func (c *Binary) decodeInstance(r *reader, in *Instance) {
	in.ID = c.intern(r.bytes())
	in.Service = c.intern(r.bytes())
	in.Qin = c.decodeParams(r, in.Qin)
	in.Qout = c.decodeParams(r, in.Qout)
	in.CPU = r.f64()
	in.Memory = r.f64()
	in.Kbps = r.f64()
}

// lint:hotpath instance-sequence decode sits under every select request
func (c *Binary) decodeInstances(r *reader, dst []Instance) []Instance {
	n := r.count(minInst)
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		// lint:allow hotalloc grows once per working-set-larger message shape, then reuses
		dst = make([]Instance, n)
	}
	dst = dst[:n]
	for i := range dst {
		c.decodeInstance(r, &dst[i])
	}
	return dst
}

// decodeCandidates reads the candidate map, recycling the previous
// decode's provider slices through candFree so a stable request shape
// settles at zero allocations.
//
// lint:hotpath candidate-map decode sits under every select request
func (c *Binary) decodeCandidates(r *reader, m map[string][]string) map[string][]string {
	for k, v := range m {
		if len(c.candFree) < 64 {
			c.candFree = append(c.candFree, v[:0])
		}
		delete(m, k)
	}
	n := r.count(minStr + 1)
	if n == 0 {
		return nil
	}
	if m == nil {
		// lint:allow hotalloc allocated once per reused Request struct, then recycled across decodes
		m = make(map[string][]string, n)
	}
	for i := 0; i < n; i++ {
		k := c.intern(r.bytes())
		cnt, isNil := r.seqLen(minStr)
		if isNil {
			m[k] = nil
			continue
		}
		if cnt == 0 {
			m[k] = emptyStrings
			continue
		}
		var vals []string
		if l := len(c.candFree); l > 0 {
			vals = c.candFree[l-1]
			c.candFree = c.candFree[:l-1]
		}
		for j := 0; j < cnt; j++ {
			vals = append(vals, c.intern(r.bytes())) // recycled via candFree; grows only when the shape grows
		}
		m[k] = vals
	}
	return m
}

// Shared empties keep "present but empty" JSON-compatible without
// per-decode allocation.
var (
	emptyStrings = []string{}
	emptyParams  = []Param{}
)

// sortStrings is a small insertion sort: candidate maps hold a
// handful of keys, and the hand-rolled loop keeps sort.Slice's
// closure allocation off the encode path.
//
// lint:hotpath key ordering runs inside every candidate-map encode
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
