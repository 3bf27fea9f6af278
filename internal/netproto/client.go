package netproto

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Client is a lightweight serving-plane caller: it speaks the
// aggregate RPC to one peer without being a peer itself — the
// load-generator role (cmd/qsaload) and any external requester. TCP
// clients pool their connections, so an open-loop run pays the dial
// handshake once per in-flight slot rather than once per request.
type Client struct {
	cfg   ClientConfig
	codec wire.Codec
	tr    Transport
	pool  *connPool     // TCP only
	udp   *UDPTransport // UDP only
	tele  peerTele
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Target is the serving peer's address.
	Target string
	// Network: "tcp" (default) or "udp" (reliable-datagram stack).
	Network string
	// Codec: "json" (default over TCP) or "binary" (default over UDP).
	Codec string
	// Wire parameterizes the UDP datagram layer; ignored over TCP.
	Wire WireConfig
	// Timeout bounds each aggregate exchange. Default 5 s — an
	// aggregation fans out to the whole overlay before answering.
	Timeout time.Duration
	// PoolConns caps idle pooled connections per target, over TCP
	// only (UDP exchanges share one endpoint and are never pooled): 0
	// defaults to 2, -1 disables pooling.
	PoolConns int
	// Metrics, when non-nil, receives the client's RPC counters and
	// wire byte accounting.
	Metrics *obs.Registry
}

func (c *ClientConfig) fillDefaults() {
	defaultNet(&c.Network, &c.Codec)
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	c.Wire.fillDefaults()
}

// validate rejects impossible client configurations by the rules
// Config.Validate applies to the same settings: zero values mean "use
// the default", negatives are errors.
func (c ClientConfig) validate() error {
	if c.Target == "" {
		return fmt.Errorf("netproto: client needs a target")
	}
	return validateNet(c.Network, c.Codec, c.Wire, c.Timeout, c.PoolConns)
}

// NewClient builds a serving-plane client for cfg.Target.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	cl := &Client{cfg: cfg}
	if cfg.Metrics != nil {
		cl.tele = newPeerTele(cfg.Metrics)
	}
	if cfg.Codec == "binary" {
		cl.codec = wire.NewBinary()
	} else {
		cl.codec = wire.JSON{}
	}
	if cfg.Network == "udp" {
		cl.udp = &UDPTransport{cfg: cfg.Wire, tele: cl.tele.wire}
		cl.tr = cl.udp
	} else {
		cl.tr = TCP{}
		if cfg.PoolConns >= 0 {
			cl.pool = newConnPool(cl.tr, cl.tele.wire, cfg.PoolConns, cfg.Timeout)
			cl.tr = cl.pool
		}
	}
	return cl, nil
}

// Close releases pooled connections, or closes the UDP endpoint: an
// exchange still in flight fails at once.
func (c *Client) Close() {
	if c.pool != nil {
		c.pool.Close()
	}
	if c.udp != nil {
		_ = c.udp.Close() // the socket's close error leaves nothing to undo
	}
}

// AggRequest is one serving-plane aggregation request, mirroring the
// paper's ServiceRequest model: the service path, a rate floor, a
// priority class, a latency budget, and the disruption-tolerant flag.
type AggRequest struct {
	// Services is the requested path, user side last (as in Aggregate).
	Services []string
	// MinRate is the user QoS rate floor.
	MinRate float64
	// Priority is the request's class (higher = more important).
	Priority int
	// Deadline is the client's latency budget in seconds; the server
	// sheds the request rather than serve it later than this. 0 = none.
	Deadline float64
	// DTolerant marks a disruption-tolerant flow: first to shed within
	// its priority class.
	DTolerant bool
	// Duration is the session length to reserve.
	Duration time.Duration
}

// AggResult is the outcome of one Aggregate call.
type AggResult struct {
	// OK means a session was admitted end to end.
	OK bool
	// SessionID and Chain identify the admitted session and its hosts.
	SessionID string
	Chain     []string
	// Cost is the composed path's aggregation cost.
	Cost float64
	// Shed means the server refused under load; RetryAfter is its
	// deterministic backoff hint.
	Shed       bool
	RetryAfter time.Duration
	// Err is the server-reported failure, "" on success.
	Err string
}

// Aggregate performs one serving-plane aggregation RPC. A shed reply
// is not an error at this layer: the result carries Shed and the
// server's RetryAfter hint so open-loop callers can back off
// deterministically (err stays nil).
func (c *Client) Aggregate(req AggRequest) (*AggResult, error) {
	wreq := request{
		Type:        msgAggregate,
		Services:    req.Services,
		MinRate:     req.MinRate,
		Priority:    req.Priority,
		Deadline:    req.Deadline,
		DTolerant:   req.DTolerant,
		DurationSec: req.Duration.Seconds(),
	}
	start := time.Now()
	resp, rpcErr := rpcWith(c.tr, c.codec, c.tele.wire, c.cfg.Target, wreq, c.cfg.Timeout)
	c.tele.observeRPC(msgAggregate, time.Since(start), rpcErr)
	if resp == nil {
		return nil, rpcErr
	}
	out := &AggResult{
		OK:         resp.OK,
		SessionID:  resp.SessionID,
		Chain:      resp.Chain,
		Cost:       resp.Cost,
		Shed:       resp.Shed,
		RetryAfter: time.Duration(resp.RetryAfterSec * float64(time.Second)),
		Err:        resp.Err,
	}
	if !resp.OK && !resp.Shed {
		return out, rpcErr
	}
	return out, nil
}
