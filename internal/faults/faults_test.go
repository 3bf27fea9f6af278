package faults

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// echoListener accepts and immediately closes connections, so admitted
// dials succeed cheaply.
func echoListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	return ln.Addr().String()
}

func mustNew(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{DropRate: -0.1},
		{DropRate: 1.1},
		{Latency: -time.Second},
		{LatencyJitter: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{DropRate: 1}); err != nil {
		t.Fatalf("boundary drop rate rejected: %v", err)
	}
}

// TestDialTranscriptDeterministic replays the same dial script through
// two fabrics with the same seed and requires identical transcripts —
// verdicts, reasons and injected latencies included.
func TestDialTranscriptDeterministic(t *testing.T) {
	addr := echoListener(t)
	script := func(f *Fabric) {
		f.Register("b", addr)
		ta, tb := f.Node("a"), f.Node("b")
		for i := 0; i < 40; i++ {
			if c, err := ta.Dial(addr, time.Second); err == nil {
				c.Close()
			}
			if c, err := tb.Dial(addr, time.Second); err == nil {
				c.Close()
			}
		}
	}
	cfg := Config{Seed: 99, DropRate: 0.5}
	f1, f2 := mustNew(t, cfg), mustNew(t, cfg)
	script(f1)
	script(f2)
	tr1, tr2 := f1.Transcript(), f2.Transcript()
	if len(tr1) != 80 {
		t.Fatalf("transcript has %d events, want 80", len(tr1))
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("same seed, same dial script, different transcripts")
	}
	drops := 0
	for _, e := range tr1 {
		if e.Decision.Drop {
			drops++
		}
	}
	if drops == 0 || drops == len(tr1) {
		t.Fatalf("50%% drop rate produced %d/%d drops", drops, len(tr1))
	}

	// A different seed must eventually disagree.
	f3 := mustNew(t, Config{Seed: 100, DropRate: 0.5})
	script(f3)
	if reflect.DeepEqual(tr1, f3.Transcript()) {
		t.Fatal("different seeds produced identical transcripts")
	}
}

func TestCrashAndRestart(t *testing.T) {
	addr := echoListener(t)
	f := mustNew(t, Config{})
	f.Register("b", addr)
	f.Crash("b")
	// Dials to and from the crashed node fail.
	if _, err := f.Node("a").Dial(addr, time.Second); err == nil {
		t.Fatal("dial to crashed node succeeded")
	}
	if _, err := f.Node("b").Dial("127.0.0.1:1", time.Second); err == nil {
		t.Fatal("dial from crashed node succeeded")
	}
	var de *DropError
	_, err := f.Node("a").Dial(addr, time.Second)
	if !errors.As(err, &de) || de.Reason != "crashed" {
		t.Fatalf("err = %v, want DropError(crashed)", err)
	}
	f.Restart("b")
	c, err := f.Node("a").Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	c.Close()
}

func TestCutIsAsymmetric(t *testing.T) {
	addr := echoListener(t)
	f := mustNew(t, Config{})
	f.Register("b", addr)
	f.Cut("a", "b")
	if _, err := f.Node("a").Dial(addr, time.Second); err == nil {
		t.Fatal("cut direction a→b dialed through")
	}
	// The reverse direction b→(addr of b) is a different link and open;
	// use an unregistered address as a stand-in destination "c".
	addr2 := echoListener(t)
	if c, err := f.Node("b").Dial(addr2, time.Second); err != nil {
		t.Fatalf("uncut direction failed: %v", err)
	} else {
		c.Close()
	}
	f.Heal("a", "b")
	if c, err := f.Node("a").Dial(addr, time.Second); err != nil {
		t.Fatalf("healed link failed: %v", err)
	} else {
		c.Close()
	}
}

func TestDropNextCountsDown(t *testing.T) {
	addr := echoListener(t)
	f := mustNew(t, Config{})
	f.Register("b", addr)
	f.DropNext("a", "b", 2)
	tr := f.Node("a")
	for i := 0; i < 2; i++ {
		var de *DropError
		_, err := tr.Dial(addr, time.Second)
		if !errors.As(err, &de) || de.Reason != "scripted" {
			t.Fatalf("dial %d: err = %v, want DropError(scripted)", i, err)
		}
	}
	c, err := tr.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial after scripted drops exhausted: %v", err)
	}
	c.Close()
	// Scripted drops are per-direction.
	f.DropNext("b", "a", 1)
	if c, err := tr.Dial(addr, time.Second); err != nil {
		t.Fatalf("a→b affected by b→a script: %v", err)
	} else {
		c.Close()
	}
}

func TestUnregisteredAddrUsesAddrAsName(t *testing.T) {
	f := mustNew(t, Config{})
	f.Cut("a", "10.0.0.9:1")
	var de *DropError
	_, err := f.Node("a").Dial("10.0.0.9:1", time.Second)
	if !errors.As(err, &de) || de.Dst != "10.0.0.9:1" {
		t.Fatalf("err = %v, want cut on the raw address link", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	addr := echoListener(t)
	f := mustNew(t, Config{Latency: 30 * time.Millisecond})
	f.Register("b", addr)
	start := time.Now()
	c, err := f.Node("a").Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("dial returned after %v, want ≥ 30ms injected latency", elapsed)
	}
}

// PacketStatsFrom is the sum of PacketStatsFor over a source's links and
// leaves other sources out.
func TestPacketStatsFromSumsOutgoingLinks(t *testing.T) {
	f := mustNew(t, Config{Seed: 5})
	if st := f.PacketStatsFrom("a"); st != (PacketStats{}) {
		t.Fatalf("disabled packet plane has stats %+v", st)
	}
	if err := f.EnablePackets(PacketConfig{DropRate: 0.3, DupRate: 0.3, ReorderRate: 0.3}); err != nil {
		t.Fatal(err)
	}
	a, b := f.PacketNode("a"), f.PacketNode("b")
	for i := 0; i < 50; i++ {
		a.Packet("b", 100)
		a.Packet("c", 100)
		b.Packet("a", 100)
	}
	ab, ac := f.PacketStatsFor("a", "b"), f.PacketStatsFor("a", "c")
	want := PacketStats{
		Sent:       ab.Sent + ac.Sent,
		Dropped:    ab.Dropped + ac.Dropped,
		Duplicated: ab.Duplicated + ac.Duplicated,
		Delayed:    ab.Delayed + ac.Delayed,
	}
	if got := f.PacketStatsFrom("a"); got != want || got.Sent != 100 {
		t.Fatalf("PacketStatsFrom(a) = %+v, want %+v", got, want)
	}
	if got := f.PacketStatsFrom("b"); got != f.PacketStatsFor("b", "a") {
		t.Fatalf("PacketStatsFrom(b) = %+v, want the b→a link alone", got)
	}
}
