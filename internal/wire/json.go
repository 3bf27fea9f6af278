package wire

import (
	"bufio"
	"errors"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// JSON is the newline-delimited JSON codec: one object per message, one
// message per line. It writes exactly the bytes encoding/json's Marshal
// writes, plus '\n', and decodes every input to the struct and the
// error/no-error outcome Unmarshal gives (json_test.go holds both
// directions to encoding/json). It is hand-written rather than
// reflective: encoding appends the fields in struct order straight into
// the caller's buffer, so a warm buffer encodes without allocating, and
// decoding is one validating pass over the line that writes into the
// destination, allocating only the strings, slices and map it keeps.
// The zero value is ready to use.
type JSON struct{}

// Name implements Codec.
func (JSON) Name() string { return "json" }

// AppendRequest implements Codec. reqID is ignored: JSON carries no
// correlation ID, so a connection runs one exchange at a time.
func (JSON) AppendRequest(dst []byte, _ uint64, req *Request) ([]byte, error) {
	e := jsonEnc{b: dst}
	e.request(req)
	return e.finish(len(dst))
}

// AppendResponse implements Codec.
func (JSON) AppendResponse(dst []byte, _ uint64, resp *Response) ([]byte, error) {
	e := jsonEnc{b: dst}
	e.response(resp)
	return e.finish(len(dst))
}

// DecodeRequest implements Codec. The struct is fully reset first, so
// reuse across messages cannot leak fields JSON omits when empty. On
// error the struct's contents are unspecified.
func (JSON) DecodeRequest(data []byte, req *Request) (uint64, error) {
	*req = Request{}
	return 0, decodeJSON(data, req)
}

// DecodeResponse implements Codec.
func (JSON) DecodeResponse(data []byte, resp *Response) (uint64, error) {
	*resp = Response{}
	return 0, decodeJSON(data, resp)
}

// decodeJSON decodes one message into msg, a *Request or *Response.
func decodeJSON(data []byte, msg any) error {
	d := jsonDec{data: data}
	if err := d.object(msg); err != nil {
		return err
	}
	return d.end()
}

// MaxLine bounds one newline-delimited JSON message, its '\n' included.
const MaxLine = 1 << 20

// ErrLineTooLong is ReadLine's error for a line longer than MaxLine.
var ErrLineTooLong = errors.New("wire: JSON line exceeds MaxLine")

// ReadLine reads one newline-terminated message from br into buf
// (reusing its capacity) and returns it, '\n' included. It stops once
// the line outgrows MaxLine, so a peer that never sends '\n' costs at
// most MaxLine plus one reader buffer. A last line cut short by the end
// of the stream is returned with a nil error; the next call reports
// io.EOF.
func ReadLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		chunk, err := br.ReadSlice('\n')
		if len(buf)+len(chunk) > MaxLine {
			return buf, ErrLineTooLong
		}
		buf = append(buf, chunk...)
		switch {
		case err == bufio.ErrBufferFull:
		case err == io.EOF && len(buf) > 0:
			return buf, nil
		default:
			return buf, err
		}
	}
}

// --- encode ----------------------------------------------------------------

// errJSONFloat is the encode error for a NaN or ±Inf, which JSON cannot
// represent (encoding/json refuses them too).
var errJSONFloat = errors.New("wire: JSON cannot encode NaN or ±Inf")

// jsonEnc appends one message to b. Every struct's first field is one
// without omitempty, so each later field's key carries its own comma.
type jsonEnc struct {
	b   []byte
	bad bool // a NaN or ±Inf was met
}

// finish terminates the message, or drops it back to start on error.
func (e *jsonEnc) finish(start int) ([]byte, error) {
	if e.bad {
		return e.b[:start], errJSONFloat
	}
	return append(e.b, '\n'), nil
}

func (e *jsonEnc) request(r *Request) {
	e.b = append(e.b, `{"type":`...)
	e.str(r.Type)
	e.optStr(`,"addr":`, r.Addr)
	e.optStr(`,"service":`, r.Service)
	if len(r.Instances) > 0 {
		e.b = append(e.b, `,"instances":[`...)
		for i := range r.Instances {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.instance(&r.Instances[i])
		}
		e.b = append(e.b, ']')
	}
	if len(r.Candidates) > 0 {
		e.b = append(e.b, `,"candidates":`...)
		e.candidates(r.Candidates)
	}
	e.optInt(`,"idx":`, r.Idx)
	e.optStrs(`,"chain":`, r.Chain)
	e.optStr(`,"user_addr":`, r.UserAddr)
	e.optBool(`,"trace":true`, r.Trace)
	e.optStr(`,"session_id":`, r.SessionID)
	e.optStr(`,"instance_id":`, r.InstanceID)
	e.optFloat(`,"cpu":`, r.CPU)
	e.optFloat(`,"memory":`, r.Memory)
	e.optFloat(`,"duration_sec":`, r.DurationSec)
	if r.TraceID != 0 {
		e.b = strconv.AppendUint(append(e.b, `,"trace_id":`...), r.TraceID, 10)
	}
	if r.SpanID != 0 {
		e.b = strconv.AppendUint(append(e.b, `,"span_id":`...), r.SpanID, 10)
	}
	e.optStrs(`,"services":`, r.Services)
	e.optFloat(`,"min_rate":`, r.MinRate)
	e.optInt(`,"priority":`, r.Priority)
	e.optFloat(`,"deadline":`, r.Deadline)
	e.optBool(`,"dtolerant":true`, r.DTolerant)
	e.b = append(e.b, '}')
}

func (e *jsonEnc) response(r *Response) {
	if r.OK {
		e.b = append(e.b, `{"ok":true`...)
	} else {
		e.b = append(e.b, `{"ok":false`...)
	}
	e.optStr(`,"err":`, r.Err)
	e.optStrs(`,"members":`, r.Members)
	if len(r.Offers) > 0 {
		e.b = append(e.b, `,"offers":[`...)
		for i := range r.Offers {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"instance":`...)
			e.instance(&r.Offers[i].Instance)
			e.b = append(e.b, `,"provider":`...)
			e.str(r.Offers[i].Provider)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if len(r.Avail) > 0 {
		e.b = append(e.b, `,"avail":[`...)
		for i, f := range r.Avail {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(f)
		}
		e.b = append(e.b, ']')
	}
	e.optFloat(`,"uptime_sec":`, r.UptimeSec)
	e.optStrs(`,"chain":`, r.Chain)
	if len(r.Hops) > 0 {
		e.b = append(e.b, `,"hops":[`...)
		for i := range r.Hops {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.hop(&r.Hops[i])
		}
		e.b = append(e.b, ']')
	}
	e.optStr(`,"session_id":`, r.SessionID)
	e.optFloat(`,"cost":`, r.Cost)
	e.optBool(`,"shed":true`, r.Shed)
	e.optFloat(`,"retry_after_sec":`, r.RetryAfterSec)
	e.b = append(e.b, '}')
}

func (e *jsonEnc) instance(in *Instance) {
	e.b = append(e.b, `{"id":`...)
	e.str(in.ID)
	e.b = append(e.b, `,"service":`...)
	e.str(in.Service)
	e.b = append(e.b, `,"qin":`...)
	e.params(in.Qin)
	e.b = append(e.b, `,"qout":`...)
	e.params(in.Qout)
	e.b = append(e.b, `,"cpu":`...)
	e.float(in.CPU)
	e.b = append(e.b, `,"memory":`...)
	e.float(in.Memory)
	e.b = append(e.b, `,"kbps":`...)
	e.float(in.Kbps)
	e.b = append(e.b, '}')
}

func (e *jsonEnc) params(ps []Param) {
	if ps == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range ps {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, `{"name":`...)
		e.str(ps[i].Name)
		e.optStr(`,"sym":`, ps[i].Sym)
		e.optFloat(`,"lo":`, ps[i].Lo)
		e.optFloat(`,"hi":`, ps[i].Hi)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

func (e *jsonEnc) hop(h *Hop) {
	e.b = strconv.AppendInt(append(e.b, `{"idx":`...), int64(h.Idx), 10)
	e.b = append(e.b, `,"at":`...)
	e.str(h.At)
	e.b = append(e.b, `,"inst":`...)
	e.str(h.Inst)
	e.optStr(`,"chosen":`, h.Chosen)
	e.optStr(`,"mode":`, h.Mode)
	if len(h.Cands) > 0 {
		e.b = append(e.b, `,"cands":[`...)
		for i := range h.Cands {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			c := &h.Cands[i]
			e.b = append(e.b, `{"addr":`...)
			e.str(c.Addr)
			e.optFloat(`,"phi":`, c.Phi)
			e.b = append(e.b, `,"reason":`...)
			e.str(c.Reason)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// candidates writes the map with its keys sorted, as encoding/json does.
// The key scratch lives on the stack for the handful of keys a select
// request carries.
func (e *jsonEnc) candidates(m map[string][]string) {
	var scratch [16]string
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	e.b = append(e.b, '{')
	for i, k := range keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(k)
		e.b = append(e.b, ':')
		e.strs(m[k])
	}
	e.b = append(e.b, '}')
}

func (e *jsonEnc) optStr(key, s string) {
	if s != "" {
		e.b = append(e.b, key...)
		e.str(s)
	}
}

func (e *jsonEnc) optStrs(key string, ss []string) {
	if len(ss) > 0 {
		e.b = append(e.b, key...)
		e.strs(ss)
	}
}

func (e *jsonEnc) optInt(key string, n int) {
	if n != 0 {
		e.b = strconv.AppendInt(append(e.b, key...), int64(n), 10)
	}
}

// optBool writes keyTrue (the key with its true value) when b is set.
func (e *jsonEnc) optBool(keyTrue string, b bool) {
	if b {
		e.b = append(e.b, keyTrue...)
	}
}

// optFloat omits exactly what omitempty omits: 0 and -0, but not NaN,
// which then fails the encode.
func (e *jsonEnc) optFloat(key string, f float64) {
	if f != 0 {
		e.b = append(e.b, key...)
		e.float(f)
	}
}

func (e *jsonEnc) strs(ss []string) {
	if ss == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, s := range ss {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(s)
	}
	e.b = append(e.b, ']')
}

// float writes f as encoding/json does, which follows ES6's
// number-to-string: the shortest digits that round-trip, in exponent
// form only below 1e-6 or from 1e21, with the exponent unpadded.
func (e *jsonEnc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	// Integral values below 2^53 print as their integer, which AppendInt
	// writes in a fraction of the time. The bit comparison leaves -0 to
	// AppendFloat, which writes "-0".
	if n := int64(f); n > -1e15 && n < 1e15 && math.Float64bits(float64(n)) == math.Float64bits(f) {
		e.b = strconv.AppendInt(e.b, n, 10)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(e.b)
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n-start >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // 1e-07 → 1e-7
		e.b = e.b[:n-1]
	}
}

// jsonSafe marks the ASCII bytes a string carries unescaped. Like
// encoding/json's default, it escapes '<', '>' and '&' so a message can
// be embedded in HTML.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// str writes s quoted as encoding/json does: the short escapes for '"',
// '\\' and \b \f \n \r \t, \u00XX for the other control bytes and for
// < > &, \ufffd for each byte of invalid UTF-8, and \u2028 / \u2029 for
// the two line separators JavaScript does not accept inside strings.
func (e *jsonEnc) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// --- decode ----------------------------------------------------------------

// maxJSONDepth is encoding/json's nesting bound: a message may have at
// most this many objects and arrays open at once.
const maxJSONDepth = 10000

// jsonError reports where a JSON message stopped decoding, and why.
type jsonError struct {
	off int
	msg string
}

func (e *jsonError) Error() string {
	return "wire: JSON " + e.msg + " at offset " + strconv.Itoa(e.off)
}

// jsonDec is a cursor over one message. Decoding fails on the first
// syntax error or the first value whose kind does not fit its field.
// Unmarshal reports an error in either case too, so stopping early
// changes no outcome.
type jsonDec struct {
	data  []byte
	pos   int
	depth int      // objects and arrays open
	name  [32]byte // folded member name scratch
}

func (d *jsonDec) fail(msg string) error { return &jsonError{off: d.pos, msg: msg} }

// syntax reports the byte at d.pos as the syntax error it is.
func (d *jsonDec) syntax() error {
	if d.pos >= len(d.data) {
		return d.fail("unexpected end of input")
	}
	return d.fail("syntax error: unexpected " + strconv.Quote(string(d.data[d.pos:d.pos+1])))
}

// badNumber rejects a number that does not fit its field's type.
func (d *jsonDec) badNumber(num []byte, typ string) error {
	return d.fail("number " + string(num) + " does not fit " + typ)
}

// mismatch rejects the value at d.pos: a well-started value of the
// wrong kind for its field (Unmarshal's type error), or no value at all.
func (d *jsonDec) mismatch() error {
	switch c := d.peek(); {
	case c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == 'n' || c == '-' || isDigit(c):
		return d.fail("value of the wrong type")
	}
	return d.syntax()
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *jsonDec) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end accepts only whitespace after the top-level value.
func (d *jsonDec) end() error {
	if d.peek(); d.pos < len(d.data) {
		return d.fail("invalid character after top-level value")
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// literal consumes word (true, false or null) at d.pos.
func (d *jsonDec) literal(word string) error {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return d.syntax()
	}
	d.pos += len(word)
	return nil
}

// number consumes a number at d.pos and returns its text:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *jsonDec) number() ([]byte, error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		i = skipDigits(data, i)
	default:
		d.pos = i
		return nil, d.syntax()
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntax()
		}
		i = skipDigits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntax()
		}
		i = skipDigits(data, i)
	}
	num := data[d.pos:i]
	d.pos = i
	return num, nil
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// scanString consumes the string at d.pos (its opening quote) and
// returns the bytes between the quotes. plain reports that they hold no
// escape and are valid UTF-8, so they are the value as they stand.
func (d *jsonDec) scanString() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.pos + 1
	plain = true
	ascii := true
	for i := start; i < len(data); {
		c := data[i]
		if c < utf8.RuneSelf && jsonSafe[c] {
			i++ // the common byte: printable ASCII
			continue
		}
		switch {
		case c == '"':
			d.pos = i + 1
			raw = data[start:i]
			if !ascii && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				d.pos = len(data)
				return nil, false, d.syntax()
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(data) || !isHex(data[j]) {
						d.pos = j
						return nil, false, d.syntax()
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return nil, false, d.syntax()
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax()
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	d.pos = len(data)
	return nil, false, d.syntax()
}

// appendUnquoted appends the value of the validated string body s as
// encoding/json decodes it: escapes resolved, a \u surrogate pair
// joined, and a lone surrogate or each byte of invalid UTF-8 replaced by
// U+FFFD.
func appendUnquoted(b, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch s[i+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					next := rune(-1)
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						next = hex4(s[i+2:])
					}
					if pair := utf16.DecodeRune(r, next); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// hex4 reads the four validated hex digits at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// jsonString materializes a scanned string value.
func jsonString(raw []byte, plain bool) string {
	if plain {
		return string(raw)
	}
	return string(appendUnquoted(make([]byte, 0, len(raw)), raw))
}

// open consumes the '{' or '[' at d.pos and reports whether the
// container has members; an empty one is consumed whole.
func (d *jsonDec) open(closer byte) (bool, error) {
	d.pos++
	if d.depth++; d.depth > maxJSONDepth {
		return false, d.fail("nesting exceeds the depth bound")
	}
	if d.peek() == closer {
		d.pos++
		d.depth--
		return false, nil
	}
	return true, nil
}

// next consumes the ',' or the closer after a member and reports
// whether another member follows.
func (d *jsonDec) next(closer byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closer:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntax()
}

// member consumes a member name and its ':' and returns the name folded
// the way encoding/json matches names against field tags, so the caller
// compares it with the lower-case tag. nil means no tag can match.
func (d *jsonDec) member() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax()
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.syntax()
	}
	d.pos++
	if !plain {
		// Unquote into the scratch the name folds into: folding never
		// writes ahead of where it reads, so it can work in place.
		raw = appendUnquoted(d.name[:0], raw)
	}
	return foldName(d.name[:0], raw), nil
}

// foldName lower-cases ASCII letters and maps each other rune to the
// smallest rune of its case-folding orbit, as encoding/json does, so ſ
// matches s and the Kelvin sign matches k. It returns nil when the
// result cannot equal an ASCII tag or outgrows dst.
func foldName(dst, name []byte) []byte {
	for i := 0; i < len(name); {
		c := name[i]
		if c < utf8.RuneSelf {
			i++
		} else {
			r, size := utf8.DecodeRune(name[i:])
			i += size
			if r = foldRune(r); r >= utf8.RuneSelf {
				return nil
			}
			c = byte(r)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if len(dst) == cap(dst) {
			return nil
		}
		dst = append(dst, c)
	}
	return dst
}

func foldRune(r rune) rune {
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

// skip consumes one value of any kind, checking its syntax and depth;
// it is how members with no field are ignored. Containers are tracked
// on an explicit stack of closers, so a deeply nested value costs heap,
// not goroutine stack.
func (d *jsonDec) skip() error {
	var scratch [32]byte
	closers := scratch[:0]
	for {
		switch c := d.peek(); {
		case c == '{' || c == '[':
			closer := c + 2 // '}' and ']'
			more, err := d.open(closer)
			if err != nil {
				return err
			}
			if more {
				closers = append(closers, closer)
				if closer == '}' {
					if _, err := d.member(); err != nil {
						return err
					}
				}
				continue
			}
		case c == '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.syntax()
		}
		// A value is done: close containers until one has another member.
		for {
			if len(closers) == 0 {
				return nil
			}
			closer := closers[len(closers)-1]
			more, err := d.next(closer)
			if err != nil {
				return err
			}
			if more {
				if closer == '}' {
					if _, err := d.member(); err != nil {
						return err
					}
				}
				break
			}
			closers = closers[:len(closers)-1]
		}
	}
}

// The field decoders below follow Unmarshal: null leaves a string,
// number, bool or struct field as it is and sets a slice or map to nil,
// and a value of another kind is an error.

func (d *jsonDec) str(dst *string) error {
	switch d.peek() {
	case '"':
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		*dst = jsonString(raw, plain)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch()
}

// numberText returns the number at d.pos, or nil for a null.
func (d *jsonDec) numberText() ([]byte, error) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		return d.number()
	case c == 'n':
		return nil, d.literal("null")
	}
	return nil, d.mismatch()
}

func (d *jsonDec) float(dst *float64) error {
	num, err := d.numberText()
	if num == nil {
		return err
	}
	f, ok := parseFloat(num)
	if !ok {
		if f, err = strconv.ParseFloat(string(num), 64); err != nil {
			return d.badNumber(num, "float64")
		}
	}
	*dst = f
	return nil
}

// parseFloat converts a validated number exactly as strconv.ParseFloat
// does, without calling it in the common case: a number with no
// exponent and at most 19 digits is n/10^k for integers n < 2^64 and
// k ≤ 19, and integer division rounds that exactly. Numbers with an
// exponent, with more digits, or of more than 15 digits below 2^-11
// report !ok and go to ParseFloat. The point is less ParseFloat's speed
// than its 800-byte decimal frame, which grew the fresh stack of every
// goroutine that decoded a reply.
func parseFloat(num []byte) (f float64, ok bool) {
	var n uint64
	digits, scale := 0, -1 // scale counts the digits after the '.'
	neg := num[0] == '-'
	for _, c := range num[boolByte(neg):] {
		switch {
		case isDigit(c):
			n = n*10 + uint64(c-'0')
			digits++
			if scale >= 0 {
				scale++
			}
		case c == '.':
			scale = 0
		default:
			return 0, false // an exponent
		}
	}
	scale = max(scale, 0)
	switch {
	case digits <= 15:
		// n and 10^scale are both exact, so one division rounds right.
		f = float64(n) / float64(pow10[scale])
	case digits <= 19:
		if f, ok = divPow10(n, scale); !ok {
			return 0, false
		}
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// pow10 holds the powers of ten below 2^64.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// divPow10 returns n/10^k rounded to the nearest float64, ties to even.
// It computes the 128-bit Q = ⌊n·2^64/10^k⌋ and a flag for the bits
// below it, then rounds Q's top 53 bits. It reports !ok when n/10^k is
// below 2^-11, where Q no longer holds the 53 bits and the rounding bit.
func divPow10(n uint64, k int) (float64, bool) {
	d := pow10[k]
	q1, r := n/d, n%d
	q0, rem := bits.Div64(r, 0, d)
	lz := bits.LeadingZeros64(q1)
	if q1 == 0 {
		lz = 64 + bits.LeadingZeros64(q0)
	}
	if 128-lz < 54 {
		return 0, false
	}
	// Normalize Q so its top bit is bit 127 of hi:lo.
	var hi, lo uint64
	if lz < 64 {
		hi, lo = q1<<lz|q0>>(64-lz), q0<<lz
	} else {
		hi = q0 << (lz - 64)
	}
	m := hi >> 11
	const half = 1 << 10
	if hi&half != 0 && (hi&(half-1) != 0 || lo != 0 || rem != 0 || m&1 != 0) {
		m++ // 2^53 stays exact
	}
	return math.Ldexp(float64(m), 11-lz), true
}

func (d *jsonDec) int(dst *int) error {
	num, err := d.numberText()
	if num == nil {
		return err
	}
	n, err := strconv.Atoi(string(num))
	if err != nil {
		return d.badNumber(num, "int")
	}
	*dst = n
	return nil
}

func (d *jsonDec) uint64(dst *uint64) error {
	num, err := d.numberText()
	if num == nil {
		return err
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return d.badNumber(num, "uint64")
	}
	*dst = n
	return nil
}

func (d *jsonDec) bool(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch()
}

// decodeArray decodes an array into s as Unmarshal does: element i
// decodes into s[i] when the slice already has it (a repeated member
// merges into the earlier elements), the slice is cut to the array's
// length, an empty array gives an empty non-nil slice, and null gives
// nil.
func decodeArray[T any](d *jsonDec, s []T) ([]T, error) {
	switch d.peek() {
	case '[':
	case 'n':
		return nil, d.literal("null")
	default:
		return s, d.mismatch()
	}
	more, err := d.open(']')
	i := 0
	for more && err == nil {
		if i == len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		// A type switch, not a function argument, keeps every call
		// direct, so the decoder stays on the stack.
		switch p := any(&s[i]).(type) {
		case *string:
			err = d.str(p)
		case *float64:
			err = d.float(p)
		default:
			err = d.object(p)
		}
		if err == nil {
			i++
			more, err = d.next(']')
		}
	}
	if err != nil {
		return s, err
	}
	if i == 0 {
		return []T{}, nil
	}
	return s[:i], nil
}

// object decodes an object into v, a pointer to one of the message
// structs, matching each folded member name against the struct's JSON
// tags; a member with no field is skipped. A null leaves the struct as
// it is; any other kind of value is an error. One function for every
// struct keeps the recursion to two frames per level of nesting: the
// discovery goroutines that decode lookup replies start small, and a
// deeper decoder grew every one of their stacks.
func (d *jsonDec) object(v any) error {
	var more bool
	var err error
	switch d.peek() {
	case '{':
		more, err = d.open('}')
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch()
	}
	for more && err == nil {
		var name []byte
		if name, err = d.member(); err != nil {
			break
		}
		switch v := v.(type) {
		case *Request:
			switch string(name) {
			case "type":
				err = d.str(&v.Type)
			case "addr":
				err = d.str(&v.Addr)
			case "service":
				err = d.str(&v.Service)
			case "instances":
				v.Instances, err = decodeArray(d, v.Instances)
			case "candidates":
				err = d.candidates(&v.Candidates)
			case "idx":
				err = d.int(&v.Idx)
			case "chain":
				v.Chain, err = decodeArray(d, v.Chain)
			case "user_addr":
				err = d.str(&v.UserAddr)
			case "trace":
				err = d.bool(&v.Trace)
			case "session_id":
				err = d.str(&v.SessionID)
			case "instance_id":
				err = d.str(&v.InstanceID)
			case "cpu":
				err = d.float(&v.CPU)
			case "memory":
				err = d.float(&v.Memory)
			case "duration_sec":
				err = d.float(&v.DurationSec)
			case "trace_id":
				err = d.uint64(&v.TraceID)
			case "span_id":
				err = d.uint64(&v.SpanID)
			case "services":
				v.Services, err = decodeArray(d, v.Services)
			case "min_rate":
				err = d.float(&v.MinRate)
			case "priority":
				err = d.int(&v.Priority)
			case "deadline":
				err = d.float(&v.Deadline)
			case "dtolerant":
				err = d.bool(&v.DTolerant)
			default:
				err = d.skip()
			}
		case *Response:
			switch string(name) {
			case "ok":
				err = d.bool(&v.OK)
			case "err":
				err = d.str(&v.Err)
			case "members":
				v.Members, err = decodeArray(d, v.Members)
			case "offers":
				v.Offers, err = decodeArray(d, v.Offers)
			case "avail":
				v.Avail, err = decodeArray(d, v.Avail)
			case "uptime_sec":
				err = d.float(&v.UptimeSec)
			case "chain":
				v.Chain, err = decodeArray(d, v.Chain)
			case "hops":
				v.Hops, err = decodeArray(d, v.Hops)
			case "session_id":
				err = d.str(&v.SessionID)
			case "cost":
				err = d.float(&v.Cost)
			case "shed":
				err = d.bool(&v.Shed)
			case "retry_after_sec":
				err = d.float(&v.RetryAfterSec)
			default:
				err = d.skip()
			}
		case *Instance:
			switch string(name) {
			case "id":
				err = d.str(&v.ID)
			case "service":
				err = d.str(&v.Service)
			case "qin":
				v.Qin, err = decodeArray(d, v.Qin)
			case "qout":
				v.Qout, err = decodeArray(d, v.Qout)
			case "cpu":
				err = d.float(&v.CPU)
			case "memory":
				err = d.float(&v.Memory)
			case "kbps":
				err = d.float(&v.Kbps)
			default:
				err = d.skip()
			}
		case *Param:
			switch string(name) {
			case "name":
				err = d.str(&v.Name)
			case "sym":
				err = d.str(&v.Sym)
			case "lo":
				err = d.float(&v.Lo)
			case "hi":
				err = d.float(&v.Hi)
			default:
				err = d.skip()
			}
		case *Offer:
			switch string(name) {
			case "instance":
				err = d.object(&v.Instance)
			case "provider":
				err = d.str(&v.Provider)
			default:
				err = d.skip()
			}
		case *Hop:
			switch string(name) {
			case "idx":
				err = d.int(&v.Idx)
			case "at":
				err = d.str(&v.At)
			case "inst":
				err = d.str(&v.Inst)
			case "chosen":
				err = d.str(&v.Chosen)
			case "mode":
				err = d.str(&v.Mode)
			case "cands":
				v.Cands, err = decodeArray(d, v.Cands)
			default:
				err = d.skip()
			}
		case *Cand:
			switch string(name) {
			case "addr":
				err = d.str(&v.Addr)
			case "phi":
				err = d.float(&v.Phi)
			case "reason":
				err = d.str(&v.Reason)
			default:
				err = d.skip()
			}
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// candidates decodes the candidate map. Unmarshal keeps an existing map
// (a repeated member merges into it) and decodes each value afresh.
func (d *jsonDec) candidates(m *map[string][]string) error {
	switch d.peek() {
	case '{':
	case 'n':
		*m = nil
		return d.literal("null")
	default:
		return d.mismatch()
	}
	more, err := d.open('}')
	if *m == nil {
		*m = make(map[string][]string)
	}
	for more && err == nil {
		var key string
		if key, err = d.mapKey(); err != nil {
			break
		}
		var provs []string
		if provs, err = decodeArray(d, provs); err != nil {
			break
		}
		(*m)[key] = provs
		more, err = d.next('}')
	}
	return err
}

// mapKey consumes a member name and its ':' and returns the name.
func (d *jsonDec) mapKey() (string, error) {
	if d.peek() != '"' {
		return "", d.syntax()
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return "", err
	}
	if d.peek() != ':' {
		return "", d.syntax()
	}
	d.pos++
	return jsonString(raw, plain), nil
}
