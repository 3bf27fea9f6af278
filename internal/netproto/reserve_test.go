package netproto

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestReserveIsIdempotent dispatches the same reserve several times at
// once: the host books it once, counts it once and holds one session. A
// second hop of the same session on the same host books again, and one
// release frees both.
func TestReserveIsIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	check := func(step string, avail float64, sessions int) {
		t.Helper()
		if av := p.Available(); av[0] != avail || p.ActiveSessions() != sessions {
			t.Fatalf("%s: available %v with %d sessions, want %v with %d",
				step, av, p.ActiveSessions(), avail, sessions)
		}
	}
	req := request{Type: msgReserve, SessionID: "u/1", InstanceID: "a#0", Idx: 0,
		CPU: 10, Memory: 10, DurationSec: 60}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := p.dispatch(req); !resp.OK {
				t.Errorf("reserve: %s", resp.Err)
			}
		}()
	}
	wg.Wait()
	check("repeated hop 0", 90, 1)
	if n := reg.Counter("reserve.admitted").Value(); n != 1 {
		t.Fatalf("reserve.admitted = %d after a repeat, want 1", n)
	}
	req.Idx, req.InstanceID = 1, "b#0"
	if resp := p.dispatch(req); !resp.OK {
		t.Fatalf("hop 1: %s", resp.Err)
	}
	check("hop 1", 80, 1)
	p.dispatch(request{Type: msgRelease, SessionID: "u/1"})
	check("release", 100, 0)

	// Release stops the expiry timer: a short holding released and booked
	// again for longer is not freed when the first duration runs out.
	req.DurationSec = 0.02
	p.dispatch(req)
	p.dispatch(request{Type: msgRelease, SessionID: "u/1"})
	req.DurationSec = 60
	p.dispatch(req)
	time.Sleep(60 * time.Millisecond)
	check("rebooked after release", 90, 1)
}

// errLostReply is replyLoser's transport failure.
var errLostReply = errors.New("reply lost")

// replyLoser is a TCP Transport whose connections deliver every request
// but lose the reply to a reserve after the host has run it: the
// unreliable network a replay-safe handler is written for. It loses the
// first lose reserve replies, or every one when lose < 0. It reads the
// JSON codec's framing, so it runs under a peer that sends JSON.
type replyLoser struct {
	mu   sync.Mutex
	lose int
}

func (l *replyLoser) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &lossyConn{Conn: c, l: l}, nil
}

func (l *replyLoser) take() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lose == 0 {
		return false
	}
	if l.lose > 0 {
		l.lose--
	}
	return true
}

type lossyConn struct {
	net.Conn
	l    *replyLoser
	lose bool
}

func (c *lossyConn) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte(`{"type":"reserve"`)) {
		c.lose = c.l.take()
	}
	return c.Conn.Write(b)
}

func (c *lossyConn) Read(b []byte) (int, error) {
	if !c.lose {
		return c.Conn.Read(b)
	}
	// The whole reply line arrives, so the host has booked; then it is lost.
	if _, err := bufio.NewReader(c.Conn).ReadBytes('\n'); err != nil {
		return 0, err
	}
	return 0, errLostReply
}

// reserveOverLossyLink starts a host offering one instance and a user
// that reaches it through l, and runs one aggregation of that service.
func reserveOverLossyLink(t *testing.T, l *replyLoser) (host *Peer, reg *obs.Registry, err error) {
	t.Helper()
	host, err = Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	if err := host.Provide(inst("work#0", "work", "A", "B", 30, 10)); err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	user, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100, Transport: l, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { user.Close() })
	if err := user.Join(host.Addr()); err != nil {
		t.Fatal(err)
	}
	_, err = user.Aggregate([]service.Name{"work"}, userQoS, time.Minute)
	return host, reg, err
}

// TestReserveRetriedAfterLostReply loses the first reserve reply after
// the host has booked. Over TCP no dedup cache stands in between: the
// retry reaches the handler again, which books nothing the second time,
// and the aggregation succeeds.
func TestReserveRetriedAfterLostReply(t *testing.T) {
	host, reg, err := reserveOverLossyLink(t, &replyLoser{lose: 1})
	if err != nil {
		t.Fatalf("aggregation failed: %v", err)
	}
	if av := host.Available(); av[0] != 70 || host.ActiveSessions() != 1 {
		t.Fatalf("host available %v with %d sessions, want 70 with 1 (double-booked?)",
			av, host.ActiveSessions())
	}
	if n := reg.Counter("rpc.reserve.retried").Value(); n != 1 {
		t.Fatalf("rpc.reserve.retried = %d, want 1", n)
	}
}

// TestRollbackFreesHostWithLostReply loses every reserve reply: the
// aggregation fails, and the rollback releases the host whose reserve
// ran unanswered, long before the session's minute would expire it.
func TestRollbackFreesHostWithLostReply(t *testing.T) {
	host, _, err := reserveOverLossyLink(t, &replyLoser{lose: -1})
	if err == nil {
		t.Fatal("aggregation succeeded with every reserve reply lost")
	}
	if av := host.Available(); av[0] != 100 || host.ActiveSessions() != 0 {
		t.Fatalf("host available %v with %d sessions after rollback, want 100 with 0",
			av, host.ActiveSessions())
	}
}

// TestFailedRecoveryFreesReplacement loses every reserve reply once the
// session is admitted, then kills its host. Recovery picks the other
// provider, whose reserve runs unanswered, so the session fails; the
// replacement is released then, not held for the session's minute.
func TestFailedRecoveryFreesReplacement(t *testing.T) {
	var hosts []*Peer
	for i := 0; i < 2; i++ {
		h, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		if err := h.Provide(inst("work#0", "work", "A", "B", 30, 10)); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	if err := hosts[1].Join(hosts[0].Addr()); err != nil {
		t.Fatal(err)
	}
	l := &replyLoser{}
	user, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100, Transport: l,
		MonitorInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { user.Close() })
	if err := user.Join(hosts[0].Addr()); err != nil {
		t.Fatal(err)
	}
	plan, err := user.Aggregate([]service.Name{"work"}, userQoS, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	dead, replacement := hosts[0], hosts[1]
	if plan.Peers[0] == replacement.Addr() {
		dead, replacement = replacement, dead
	}
	l.mu.Lock()
	l.lose = -1
	l.mu.Unlock()
	dead.Close()
	for limit := time.Now().Add(10 * time.Second); time.Now().Before(limit); time.Sleep(10 * time.Millisecond) {
		if st, _ := user.SessionStatus(plan.SessionID); st == StatusFailed {
			break
		}
	}
	if st, _ := user.SessionStatus(plan.SessionID); st != StatusFailed {
		t.Fatalf("session %s, want failed", st)
	}
	if av := replacement.Available(); av[0] != 100 || replacement.ActiveSessions() != 0 {
		t.Fatalf("replacement available %v with %d sessions after the failed recovery, want 100 with 0",
			av, replacement.ActiveSessions())
	}
}
