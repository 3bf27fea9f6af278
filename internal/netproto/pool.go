package netproto

import (
	"net"
	"sync"
	"time"
)

// connPool is a Transport decorator that keeps cleanly finished TCP
// connections open for reuse, so an open-loop client (or a busy peer's
// select/probe fan-out) pays the dial handshake once per target rather
// than once per RPC. Reuse is opt-in per exchange: rpcWith marks a
// connection Reusable only after the response decoded cleanly, so a
// half-read stream is never parked.
//
// Pooled connections idle at most ttl before being torn down — kept
// well under the server's per-connection read deadline so the pool
// never hands out a connection the far side is about to reap.
type connPool struct {
	inner   Transport
	tele    wireTele
	perAddr int
	ttl     time.Duration

	mu     sync.Mutex
	idle   map[string][]*pooledConn
	closed bool
}

func newConnPool(inner Transport, tele wireTele, perAddr int, ttl time.Duration) *connPool {
	if perAddr <= 0 {
		perAddr = 2
	}
	if ttl <= 0 {
		ttl = 4 * time.Second
	}
	return &connPool{
		inner:   inner,
		tele:    tele,
		perAddr: perAddr,
		ttl:     ttl,
		idle:    make(map[string][]*pooledConn),
	}
}

// Dial implements Transport: a fresh-enough idle connection to addr is
// reused, otherwise the inner transport dials.
func (p *connPool) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	p.mu.Lock()
	for {
		conns := p.idle[addr]
		if len(conns) == 0 {
			break
		}
		// LIFO: the most recently parked connection is the least likely
		// to have idled past its welcome.
		pc := conns[len(conns)-1]
		p.idle[addr] = conns[:len(conns)-1]
		if time.Since(pc.parked) < p.ttl {
			p.mu.Unlock()
			p.tele.connReuses.Inc()
			return pc, nil
		}
		_ = pc.Conn.Close()
	}
	p.mu.Unlock()
	conn, err := p.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	p.tele.connDials.Inc()
	return &pooledConn{Conn: conn, pool: p, addr: addr}, nil
}

// put parks a reusable connection, or closes it when the pool is full
// or shut down.
func (p *connPool) put(pc *pooledConn) error {
	// Clear the exchange deadline so the parked socket does not fire a
	// stale timer into its next user.
	if err := pc.Conn.SetDeadline(time.Time{}); err != nil {
		return pc.Conn.Close()
	}
	p.mu.Lock()
	if p.closed || len(p.idle[pc.addr]) >= p.perAddr {
		p.mu.Unlock()
		return pc.Conn.Close()
	}
	pc.parked = time.Now()
	p.idle[pc.addr] = append(p.idle[pc.addr], pc)
	p.mu.Unlock()
	return nil
}

// Close tears down every idle connection and stops further pooling;
// in-flight connections close normally when their exchange ends.
func (p *connPool) Close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = make(map[string][]*pooledConn)
	p.mu.Unlock()
	for _, conns := range idle {
		for _, pc := range conns {
			_ = pc.Conn.Close()
		}
	}
}

// idleCount reports pooled connections to addr (tests).
func (p *connPool) idleCount(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// pooledConn wraps one transport connection. Close returns it to the
// pool when the last exchange marked it reusable; otherwise the
// underlying connection really closes.
type pooledConn struct {
	net.Conn
	pool   *connPool
	addr   string
	reuse  bool
	parked time.Time
}

// Reusable marks the connection's stream as cleanly message-aligned.
func (pc *pooledConn) Reusable() { pc.reuse = true }

// Close implements net.Conn.
func (pc *pooledConn) Close() error {
	if pc.reuse {
		pc.reuse = false
		return pc.pool.put(pc)
	}
	return pc.Conn.Close()
}
