package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval around a call into a layer. Spans are
// recorded only here, in the benchmark, around the program's public
// functions; the program's own Tracer stays off.
type span struct {
	Name   string
	Start  int64 // ns since the recorder's origin
	End    int64
	Parent int    // index of the causing span, -1 for a root
	Req    uint64 // request the span belongs to, 0 for none
	// Sizing marks a span that repeats work the program also does inside
	// another span (a leaf timed directly on captured inputs). It sizes
	// that leaf but is overhead of the traced run, so it is left out of
	// the attributed total and does not reduce its parent's self time.
	Sizing bool
}

// recorder keeps spans in memory; one goroutine owns one recorder.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

func (r *recorder) begin(name string, parent int, req uint64) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req,
		Start: int64(time.Since(r.origin))})
	return len(r.spans) - 1
}

func (r *recorder) beginSizing(name string, parent int, req uint64) int {
	id := r.begin(name, parent, req)
	r.spans[id].Sizing = true
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.origin)) }

// mergeSpans concatenates per-goroutine span lists, re-basing parent
// indices so they stay valid in the combined list.
func mergeSpans(lists ...[]span) []span {
	var out []span
	for _, l := range lists {
		base := len(out)
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time and the span
// count. A span's self time is its duration minus the part of its
// interval that its (non-sizing) child spans cover; overlapping children
// are counted once.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && !s.Sizing {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for i, s := range spans {
		d := s.End - s.Start
		if kids := children[i]; len(kids) > 0 {
			sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
			covered, hi := int64(0), s.Start
			for _, k := range kids {
				lo, end := max(k[0], hi), min(k[1], s.End)
				if end > lo {
					covered += end - lo
					hi = end
				}
			}
			d -= covered
		}
		self[s.Name] += time.Duration(d)
		count[s.Name]++
	}
	return self, count
}

// layerOf maps a span name onto its layer: the module name before the
// first dot ("registry.discover" → "registry").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf folds selfTimes by layer, leaving sizing spans out.
func layerSelf(spans []span) map[string]time.Duration {
	kept := make([]span, 0, len(spans))
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		if s.Sizing {
			continue
		}
		index[i] = len(kept)
		kept = append(kept, s)
	}
	for i := range kept {
		if p := kept[i].Parent; p >= 0 {
			kept[i].Parent = index[p]
		}
	}
	self, _ := selfTimes(kept)
	out := make(map[string]time.Duration)
	for name, d := range self {
		out[layerOf(name)] += d
	}
	return out
}

// writeSpans writes the spans as JSON lines to out/<workload>.spans.jsonl
// under the current directory, which `go run -C benchmark .` makes the
// benchmark's own.
func writeSpans(workload string, spans []span) (string, error) {
	const dir = "out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range spans {
		sizing := ""
		if s.Sizing {
			sizing = `,"sizing":true`
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d%s}`+"\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Req, sizing)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
