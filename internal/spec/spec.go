// Package spec implements a small textual specification language for QSA
// service instances and applications — the role the paper's §3.1 assigns
// to QoS specification languages (QML, HQML, the XML-based language of
// reference [11]): "application-level QoS specifications of each service
// instance are available and co-located with the service instance".
//
// The format is line-oriented with {}-delimited blocks:
//
//	# a media source
//	instance source/hd {
//	    service: source
//	    input:   media=cam
//	    output:  format=MPEG, fps=[25,30]
//	    cpu:     120
//	    memory:  120
//	    kbps:    90
//	}
//
//	application vod {
//	    path: source -> translator -> player
//	}
//
// QoS vectors are comma-separated parameters: `name=value` is a symbolic
// single-value parameter unless value is numeric (a degenerate range);
// `name=[lo,hi]` is a range parameter. `#` starts a comment.
package spec

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
)

// Spec is a parsed specification document.
type Spec struct {
	Instances    []*service.Instance
	Applications []*service.Application
}

// ParseError reports a syntax or validation problem with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("spec: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ParseQoS parses a QoS vector: `format=MPEG, fps=[25,30], res=720`.
func ParseQoS(s string) (qos.Vector, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var params []qos.Param
	for _, part := range splitTop(s) {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("parameter %q lacks '='", part)
		}
		name = strings.TrimSpace(name)
		val = strings.TrimSpace(val)
		switch {
		case strings.HasPrefix(val, "[") && strings.HasSuffix(val, "]"):
			body := val[1 : len(val)-1]
			loS, hiS, ok := strings.Cut(body, ",")
			if !ok {
				return nil, fmt.Errorf("range %q needs two bounds", val)
			}
			lo, err := strconv.ParseFloat(strings.TrimSpace(loS), 64)
			if err != nil {
				return nil, fmt.Errorf("range %q: %v", val, err)
			}
			hi, err := strconv.ParseFloat(strings.TrimSpace(hiS), 64)
			if err != nil {
				return nil, fmt.Errorf("range %q: %v", val, err)
			}
			if hi < lo {
				return nil, fmt.Errorf("range %q is inverted", val)
			}
			params = append(params, qos.Range(name, lo, hi))
		default:
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				params = append(params, qos.Point(name, f))
			} else {
				if val == "" {
					return nil, fmt.Errorf("parameter %q has empty value", name)
				}
				params = append(params, qos.Sym(name, val))
			}
		}
	}
	return qos.NewVector(params...)
}

// splitTop splits on commas that are not inside brackets.
func splitTop(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// FormatQoS renders a QoS vector in the language's syntax, dimensions
// sorted by name.
func FormatQoS(v qos.Vector) string {
	parts := make([]string, 0, len(v))
	for _, p := range v {
		if p.Symbolic() {
			parts = append(parts, fmt.Sprintf("%s=%s", p.Name, p.Sym))
			// A degenerate range stores Lo and Hi as the same bits (see qos.Point).
		} else if p.Lo == p.Hi {
			parts = append(parts, fmt.Sprintf("%s=%g", p.Name, p.Lo))
		} else {
			parts = append(parts, fmt.Sprintf("%s=[%g,%g]", p.Name, p.Lo, p.Hi))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Parse reads a specification document.
func Parse(r io.Reader) (*Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	spec := &Spec{}
	line := 0

	seenInst := map[string]bool{}
	seenApp := map[string]bool{}

	for sc.Scan() {
		line++
		text := stripComment(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || fields[2] != "{" {
			return nil, errf(line, "expected `instance NAME {` or `application NAME {`, got %q", text)
		}
		kind, name := fields[0], fields[1]
		body, endLine, err := readBlock(sc, line)
		if err != nil {
			return nil, err
		}
		switch kind {
		case "instance":
			if seenInst[name] {
				return nil, errf(line, "duplicate instance %q", name)
			}
			seenInst[name] = true
			in, err := parseInstance(name, body, line)
			if err != nil {
				return nil, err
			}
			spec.Instances = append(spec.Instances, in)
		case "application":
			if seenApp[name] {
				return nil, errf(line, "duplicate application %q", name)
			}
			seenApp[name] = true
			app, err := parseApplication(name, body, line)
			if err != nil {
				return nil, err
			}
			spec.Applications = append(spec.Applications, app)
		default:
			return nil, errf(line, "unknown block kind %q", kind)
		}
		line = endLine
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spec, nil
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// kv is one `key: value` entry with its line number.
type kv struct {
	key, val string
	line     int
}

// readBlock consumes lines until the closing `}`.
func readBlock(sc *bufio.Scanner, startLine int) ([]kv, int, error) {
	var body []kv
	line := startLine
	for sc.Scan() {
		line++
		text := stripComment(sc.Text())
		if text == "" {
			continue
		}
		if text == "}" {
			return body, line, nil
		}
		key, val, ok := strings.Cut(text, ":")
		if !ok {
			return nil, line, errf(line, "expected `key: value`, got %q", text)
		}
		body = append(body, kv{strings.TrimSpace(key), strings.TrimSpace(val), line})
	}
	return nil, line, errf(startLine, "block opened here is never closed")
}

func parseInstance(name string, body []kv, blockLine int) (*service.Instance, error) {
	in := &service.Instance{ID: name, R: resource.Vec2(0, 0)}
	for _, e := range body {
		switch e.key {
		case "service":
			in.Service = service.Name(e.val)
		case "input":
			v, err := ParseQoS(e.val)
			if err != nil {
				return nil, errf(e.line, "input: %v", err)
			}
			in.Qin = v
		case "output":
			v, err := ParseQoS(e.val)
			if err != nil {
				return nil, errf(e.line, "output: %v", err)
			}
			in.Qout = v
		case "cpu", "memory", "kbps":
			f, err := strconv.ParseFloat(e.val, 64)
			if err != nil {
				return nil, errf(e.line, "%s: %v", e.key, err)
			}
			switch e.key {
			case "cpu":
				in.R[resource.CPU] = f
			case "memory":
				in.R[resource.Memory] = f
			case "kbps":
				in.OutKbps = f
			}
		default:
			return nil, errf(e.line, "unknown instance key %q", e.key)
		}
	}
	if err := in.Validate(); err != nil {
		return nil, errf(blockLine, "instance %q: %v", name, err)
	}
	return in, nil
}

func parseApplication(name string, body []kv, blockLine int) (*service.Application, error) {
	app := &service.Application{ID: name}
	for _, e := range body {
		switch e.key {
		case "path":
			for _, hop := range strings.Split(e.val, "->") {
				app.Path = append(app.Path, service.Name(strings.TrimSpace(hop)))
			}
		default:
			return nil, errf(e.line, "unknown application key %q", e.key)
		}
	}
	if err := app.Validate(); err != nil {
		return nil, errf(blockLine, "application %q: %v", name, err)
	}
	return app, nil
}

// Format renders the spec back in the language's syntax (round-trippable).
func (s *Spec) Format(w io.Writer) error {
	for i, in := range s.Instances {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "instance %s {\n", in.ID)
		fmt.Fprintf(w, "    service: %s\n", in.Service)
		if len(in.Qin) > 0 {
			fmt.Fprintf(w, "    input:   %s\n", FormatQoS(in.Qin))
		}
		if len(in.Qout) > 0 {
			fmt.Fprintf(w, "    output:  %s\n", FormatQoS(in.Qout))
		}
		fmt.Fprintf(w, "    cpu:     %g\n", in.R[resource.CPU])
		fmt.Fprintf(w, "    memory:  %g\n", in.R[resource.Memory])
		fmt.Fprintf(w, "    kbps:    %g\n", in.OutKbps)
		fmt.Fprintln(w, "}")
	}
	for _, app := range s.Applications {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "application %s {\n", app.ID)
		hops := make([]string, len(app.Path))
		for i, h := range app.Path {
			hops[i] = string(h)
		}
		fmt.Fprintf(w, "    path: %s\n", strings.Join(hops, " -> "))
		fmt.Fprintln(w, "}")
	}
	return nil
}
