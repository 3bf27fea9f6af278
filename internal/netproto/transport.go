package netproto

import (
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// Transport dials remote peers for RPC exchanges. The production
// implementation is TCP; tests inject fault-injecting transports
// (internal/faults) to exercise drop, latency, partition and crash
// behaviour without touching real listeners.
type Transport interface {
	// Dial opens a connection to addr, observing timeout for the
	// connection establishment. The caller owns the returned connection.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// TCP is the default Transport: a plain net.DialTimeout over "tcp".
type TCP struct{}

// Dial implements Transport.
func (TCP) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// RetryPolicy bounds retransmission of idempotent RPCs (probe, lookup,
// join, leave, reserve, release). Only transport-level failures are
// retried — an application-level error means the peer answered and
// retrying cannot change the outcome. A repeated reserve books nothing
// (the host keys it by session and hop), so a retry after a lost reply
// is safe. Select and aggregate are never retried: a repeat would
// re-run the downstream selection recursion, or admit a second session.
type RetryPolicy struct {
	// Attempts is the total number of dial attempts per RPC.
	// 0 means the default (3); 1 disables retry.
	Attempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// with every further attempt. Default 25 ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Default 250 ms.
	MaxDelay time.Duration
}

func (r *RetryPolicy) fillDefaults() {
	if r.Attempts == 0 {
		r.Attempts = 3
	}
	if r.BaseDelay == 0 {
		r.BaseDelay = 25 * time.Millisecond
	}
	if r.MaxDelay == 0 {
		r.MaxDelay = 250 * time.Millisecond
	}
}

// backoff is the jittered exponential delay before attempt+1, shared by
// RPC retry and datagram retransmission: base, doubled doublings times,
// capped at maxd, then scaled into [d/2, d) by a hash of (attempt, local
// addr, remote addr), so concurrent retries desynchronize while a given
// configuration replays deterministically.
func backoff(base, maxd time.Duration, doublings int, local, remote string, attempt int) time.Duration {
	d := base
	for i := 0; i < doublings && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	h := xrand.MixString(uint64(attempt), local)
	h = xrand.MixString(h, remote)
	frac := float64(h>>11) / (1 << 53) // uniform [0,1)
	half := d / 2
	return half + time.Duration(frac*float64(half))
}

// rpcRetry performs one idempotent RPC with bounded retry. Transport
// failures (resp == nil) are retried up to the policy's attempt budget;
// application-level failures (the peer answered with an error) and
// successes return immediately. Retries stop early when the peer shuts
// down.
func (p *Peer) rpcRetry(addr string, req request, timeout time.Duration) (*response, error) {
	for attempt := 1; ; attempt++ {
		resp, err := p.rpc(addr, req, timeout)
		if err == nil || resp != nil || attempt >= p.cfg.Retry.Attempts {
			return resp, err
		}
		p.tele.rpcRetried[req.Type].Inc()
		if tr := p.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindRetry, RPC: req.Type, Peer: addr, Attempt: attempt,
				Trace: req.TraceID, Span: req.SpanID})
		}
		t := time.NewTimer(backoff(p.cfg.Retry.BaseDelay, p.cfg.Retry.MaxDelay, attempt-1, p.addr, addr, attempt))
		select {
		case <-p.done:
			t.Stop()
			return nil, err
		case <-t.C:
		}
	}
}

// rpc performs a single RPC exchange through the configured transport
// with the peer's configured codec, accounting the attempt and its
// latency when telemetry is enabled. The disabled path (no
// Config.Metrics) adds one branch and no clock reads.
func (p *Peer) rpc(addr string, req request, timeout time.Duration) (*response, error) {
	if p.cfg.Metrics == nil {
		return rpcWith(p.cfg.Transport, p.codec, p.tele.wire, addr, req, timeout)
	}
	start := time.Now()
	resp, err := rpcWith(p.cfg.Transport, p.codec, p.tele.wire, addr, req, timeout)
	p.tele.observeRPC(req.Type, time.Since(start), err)
	return resp, err
}
