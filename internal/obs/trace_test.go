package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fakeClock is a deterministic Clock for tests.
func fakeClock() (Clock, func(float64)) {
	now := 0.0
	return func() float64 { return now }, func(t float64) { now = t }
}

func TestTracerStampsAndReads(t *testing.T) {
	var buf bytes.Buffer
	clock, set := fakeClock()
	tr := NewTracer(&buf, clock)
	tr.Emit(Event{Kind: KindHop, Req: 1, Hop: 1, Inst: "a"})
	set(1.5)
	tr.EmitSpan(Event{Kind: KindSpan, Req: 1, Stage: StageCompose, Err: "no path"}, 0.5)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 2 {
		t.Fatalf("count = %d, want 2", tr.Count())
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("read %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("bad sequencing: %+v", evs)
	}
	if evs[0].T != 0 || evs[1].T != 1.5 {
		t.Fatalf("bad timestamps: %+v", evs)
	}
	if evs[1].Stage != StageCompose || evs[1].Err != "no path" || evs[1].Duration != 1 {
		t.Fatalf("bad round trip: %+v", evs[1])
	}
}

func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindHop})
	tr.EmitSpan(Event{Kind: KindSpan}, 0)
	if tr.Count() != 0 {
		t.Fatal("nil tracer must count 0")
	}
	if tr.Err() != nil || tr.Flush() != nil {
		t.Fatal("nil tracer must report no errors")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n       int
	written int
}

var errSink = errors.New("sink failed")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errSink
	}
	f.written += len(p)
	return len(p), nil
}

func TestTracerStickyWriteError(t *testing.T) {
	clock, _ := fakeClock()
	tr := NewTracer(&failWriter{n: 64}, clock)
	// Overflow the bufio buffer so the underlying write error surfaces.
	for i := 0; i < 200; i++ {
		tr.Emit(Event{Kind: KindHop, Req: uint64(i + 1), At: "127.0.0.1:7001", Chosen: "127.0.0.1:7002"})
	}
	if !errors.Is(tr.Err(), errSink) {
		t.Fatalf("Err() = %v, want sink failure", tr.Err())
	}
	if !errors.Is(tr.Flush(), errSink) {
		t.Fatalf("Flush() = %v, want sink failure", tr.Flush())
	}
	if tr.Count() != 200 {
		t.Fatalf("count = %d, want 200 (sequencing continues after error)", tr.Count())
	}
}

func TestReadEventsErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"garbage", "{\"seq\":1,\"kind\":\"span\"}\nnot json\n", "event 2"},
		{"missing kind", "{\"seq\":1,\"t\":0}\n", "missing kind"},
		{"stale seq", "{\"seq\":2,\"kind\":\"span\"}\n{\"seq\":2,\"kind\":\"hop\"}\n", "not increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEvents(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestTracerDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		clock, set := fakeClock()
		tr := NewTracer(&buf, clock)
		tr.EmitSpan(Event{Kind: KindSpan, Req: 1, User: "42", App: "app1", Level: "high", OK: true}, 0)
		set(0.25)
		tr.Emit(Event{Kind: KindHop, Req: 1, Hop: 2, Inst: "i1", Cands: []Candidate{
			{Peer: "9", Phi: 1.5, Reason: "chosen"},
			{Peer: "4", Reason: "dead"},
		}, Chosen: "9", Mode: "informed"})
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical emissions must be byte-identical")
	}
}
