package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Config parameterizes a network peer.
type Config struct {
	// Listen is the listen address ("127.0.0.1:0" for an ephemeral
	// port), on the network chosen by Network.
	Listen string
	// Network selects the listener and default transport: "tcp"
	// (default) or "udp" (the reliable-datagram stack of DESIGN.md §6.2).
	Network string
	// Codec selects the request encoding this peer SENDS: "json"
	// (newline-delimited, the rollback format) or "binary"
	// (internal/wire compact framing). Default: "json" over TCP,
	// "binary" over UDP. Servers need no setting — the first byte of
	// each incoming message picks the decode path, and replies use the
	// codec the request arrived in.
	Codec string
	// Wire parameterizes the UDP datagram layer (MTU, ack timeout,
	// retransmit budget, dedup TTL, packet-fault filter). Ignored when
	// Network is "tcp" and no UDPTransport is in play.
	Wire WireConfig
	// CPU and Memory are the peer's end-system capacity units.
	CPU, Memory float64
	// Weights are the Φ weights [cpu, memory, network]; default uniform.
	Weights []float64
	// RPCTimeout bounds every remote call. Default 2 s.
	RPCTimeout time.Duration
	// ProbeCacheTTL is how long probe results are reused. Default 1 s.
	ProbeCacheTTL time.Duration
	// MonitorInterval enables runtime failure detection and recovery (the
	// paper's §6 future work): sessions this peer initiates are probed at
	// this interval, and a component whose host stopped responding is
	// re-homed by core.Recover, selected at its downstream neighbour. It
	// is also how this peer learns that a session ended. 0 disables it.
	MonitorInterval time.Duration
	// Transport dials remote peers. Default TCP{}; tests inject the
	// fault-injecting transport from internal/faults here.
	Transport Transport
	// Retry bounds retransmission of the idempotent RPCs (probe, lookup,
	// join, leave, reserve, release). Select and aggregate are never
	// retried — see RetryPolicy.
	Retry RetryPolicy
	// Metrics, when non-nil, receives runtime counters (per-RPC
	// sent/failed/retried, RPC latency, probe cache hits/misses,
	// admission decisions, transport dials) and causes Transport to be
	// wrapped in a MeteredTransport. Nil disables the accounting at
	// near-zero cost.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives the telemetry stream: a span tree
	// for every aggregation this peer initiates (its hop and RPC retry
	// events beside it) and a span for every remote leg it serves. The
	// tracer's clock decides timestamping: cmd/qsapeer uses wall time,
	// tests inject deterministic clocks.
	Tracer *obs.Tracer
	// Admit bounds concurrent aggregate serving (DESIGN §4.3). Zero
	// Workers — the default — disables admission control entirely.
	Admit AdmitConfig
	// PoolConns controls connection reuse for outgoing RPCs, over TCP
	// only (UDP exchanges share one endpoint and are never pooled): 0
	// (default) pools up to 2 idle connections per target when this
	// peer uses the default TCP transport; > 0 sets that per-target
	// cap explicitly (also on injected transports); -1 disables
	// pooling and dials per exchange.
	PoolConns int
}

// defaultNet fills the network and codec both Config and ClientConfig
// default: TCP, with JSON over TCP and binary over UDP.
func defaultNet(network, codec *string) {
	if *network == "" {
		*network = "tcp"
	}
	if *codec == "" {
		if *network == "udp" {
			*codec = "binary"
		} else {
			*codec = "json"
		}
	}
}

// validateNet is the check Config and ClientConfig share: the network
// and codec names (empty means the default), the datagram layer's
// bounds, a non-negative exchange timeout and a pool setting ≥ -1.
func validateNet(network, codec string, w WireConfig, timeout time.Duration, poolConns int) error {
	if network != "" && network != "tcp" && network != "udp" {
		return fmt.Errorf("netproto: unknown network %q (want tcp or udp)", network)
	}
	if codec != "" && codec != "json" && codec != "binary" {
		return fmt.Errorf("netproto: unknown codec %q (want json or binary)", codec)
	}
	if err := w.validate(); err != nil {
		return err
	}
	if timeout < 0 {
		return fmt.Errorf("netproto: negative timeout %v", timeout)
	}
	if poolConns < -1 {
		return fmt.Errorf("netproto: PoolConns %d (want >= -1)", poolConns)
	}
	return nil
}

func (c *Config) fillDefaults() {
	defaultNet(&c.Network, &c.Codec)
	if len(c.Weights) == 0 {
		c.Weights = []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.ProbeCacheTTL == 0 {
		c.ProbeCacheTTL = time.Second
	}
	c.Wire.fillDefaults()
	c.Admit.fillDefaults()
	if c.Transport == nil && c.Network != "udp" {
		// The UDP default is built in Start, where the telemetry handle
		// exists to plumb into the transport.
		c.Transport = TCP{}
	}
	c.Retry.fillDefaults()
}

// Validate rejects impossible configurations. Zero values mean "use the
// default" (fillDefaults); negatives are always errors — a negative
// timeout would make every RPC deadline already expired, and a negative
// interval or retry budget has no meaning.
func (c Config) Validate() error {
	if err := validateNet(c.Network, c.Codec, c.Wire, c.RPCTimeout, c.PoolConns); err != nil {
		return err
	}
	if !resource.Sound(c.CPU, c.Memory) {
		return fmt.Errorf("netproto: negative or non-finite capacity")
	}
	if c.ProbeCacheTTL < 0 {
		return fmt.Errorf("netproto: negative ProbeCacheTTL %v", c.ProbeCacheTTL)
	}
	if c.MonitorInterval < 0 {
		return fmt.Errorf("netproto: negative MonitorInterval %v", c.MonitorInterval)
	}
	if c.Retry.Attempts < 0 {
		return fmt.Errorf("netproto: negative retry attempts %d", c.Retry.Attempts)
	}
	if c.Retry.BaseDelay < 0 || c.Retry.MaxDelay < 0 {
		return fmt.Errorf("netproto: negative retry backoff")
	}
	if c.Admit.Workers < 0 || c.Admit.MaxQueue < 0 || c.Admit.RetryAfter < 0 {
		return fmt.Errorf("netproto: negative admission bounds")
	}
	return nil
}

// probeResult is one cached measurement of a remote peer.
type probeResult struct {
	avail    resource.Vector
	uptime   time.Duration
	rtt      time.Duration
	alive    bool
	measured time.Time
}

// Plan is an admitted aggregation: instance IDs and the peer addresses
// hosting them, in aggregation-flow order.
type Plan struct {
	SessionID string
	Instances []string
	Peers     []string
	Cost      float64
}

// SessionStatus is the lifecycle state of a session this peer initiated.
type SessionStatus string

// Session lifecycle states (only tracked when monitoring is enabled).
const (
	StatusActive    SessionStatus = "active"
	StatusCompleted SessionStatus = "completed"
	StatusFailed    SessionStatus = "failed"
)

// initiated tracks one session this peer started, for monitoring.
type initiated struct {
	grid     *rpcGrid // the aggregation's grid: its path and hosts
	deadline time.Time
	status   SessionStatus
	span     obs.Span // the session span, open while the session runs
}

// Peer is one QSA prototype node.
type Peer struct {
	cfg   Config
	codec wire.Codec   // codec for RPCs this peer sends
	bin   *wire.Binary // shared binary codec (server decode + binary sends)

	ln    net.Listener
	addr  string
	start time.Time

	mu        sync.Mutex
	conns     map[net.Conn]bool // open server-side connections
	members   map[string]bool   // other peers' addresses
	provides  map[string]*service.Instance
	ledger    *resource.Ledger
	sessions  map[string]*holding   // sessionID -> what it holds here
	initiated map[string]*initiated // sessions this peer started
	probes    map[string]probeResult
	nextSess  uint64
	nextReq   uint64
	closed    bool

	tele  peerTele   // zero when Config.Metrics is nil
	spans *obs.Spans // nil when Config.Tracer is nil

	admit *admission    // nil when admission control is disabled
	pool  *connPool     // nil when connection pooling is disabled
	udp   *UDPTransport // the datagram transport this peer built, nil otherwise

	done chan struct{} // closed on Close; stops session monitors
	wg   sync.WaitGroup
}

// Start launches a peer listening on cfg.Listen.
func Start(cfg Config) (*Peer, error) {
	injectedTransport := cfg.Transport != nil
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var tele peerTele
	if cfg.Metrics != nil {
		tele = newPeerTele(cfg.Metrics)
	}
	var udp *UDPTransport
	if cfg.Transport == nil {
		// Only reachable for Network == "udp" (fillDefaults handles tcp):
		// build the datagram transport here so it shares the peer's wire
		// telemetry and trace sink. The peer owns it and closes it.
		udp = &UDPTransport{cfg: cfg.Wire, tele: tele.wire, tracer: cfg.Tracer}
		cfg.Transport = udp
	}
	if cfg.Metrics != nil {
		cfg.Transport = NewMeteredTransport(cfg.Transport, cfg.Metrics)
	}
	// Connection pooling sits outermost so a reuse skips the metered
	// dial entirely. It is for TCP only: a UDP conn carries one message,
	// so a parked one would answer its next user with EOF. The default
	// pools the plain-TCP configuration; an explicit PoolConns > 0 also
	// pools injected (e.g. fault-wrapped) transports.
	var pool *connPool
	if cfg.Network == "tcp" && (cfg.PoolConns > 0 || (cfg.PoolConns == 0 && !injectedTransport)) {
		pool = newConnPool(cfg.Transport, tele.wire, cfg.PoolConns, cfg.RPCTimeout*4)
		cfg.Transport = pool
	}
	ledger, err := resource.NewLedger(resource.Vec2(cfg.CPU, cfg.Memory))
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	if cfg.Network == "udp" {
		ln, err = listenUDP(cfg.Listen, cfg.Wire, tele.wire, cfg.Tracer)
	} else {
		ln, err = net.Listen("tcp", cfg.Listen)
	}
	if err != nil {
		return nil, err
	}
	bin := wire.NewBinary()
	var codec wire.Codec = wire.JSON{}
	if cfg.Codec == "binary" {
		codec = bin
	}
	p := &Peer{
		cfg:       cfg,
		codec:     codec,
		bin:       bin,
		ln:        ln,
		addr:      ln.Addr().String(),
		start:     time.Now(),
		conns:     make(map[net.Conn]bool),
		members:   make(map[string]bool),
		provides:  make(map[string]*service.Instance),
		ledger:    ledger,
		sessions:  make(map[string]*holding),
		initiated: make(map[string]*initiated),
		probes:    make(map[string]probeResult),
		done:      make(chan struct{}),
		tele:      tele,
		// Span IDs are salted by the listen address: each peer mints IDs
		// from its own stream, so spans joined across peers cannot
		// collide while a fixed topology stays reproducible.
		spans: obs.NewSpans(cfg.Tracer, xrand.MixString(0x51534153, ln.Addr().String())),
		pool:  pool,
		udp:   udp,
	}
	if cfg.Admit.Workers > 0 {
		p.admit = newAdmission(cfg.Admit, p.done, tele.serveDepth)
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.addr }

// Uptime returns how long the peer has been running.
func (p *Peer) Uptime() time.Duration { return time.Since(p.start) }

// Leave departs gracefully: every known member is told to drop this peer
// from its membership (so discovery stops offering it), then the listener
// closes. Sessions this peer hosts are lost either way — the initiators'
// monitors recover them if enabled.
func (p *Peer) Leave() error {
	for _, m := range p.Members() {
		// Best effort (with retry — leave is idempotent): unreachable
		// members age the departed peer out on their own.
		_, _ = p.rpcRetry(m, request{Type: msgLeave, Addr: p.addr}, p.cfg.RPCTimeout)
	}
	return p.Close()
}

// Close departs abruptly: the listener stops, RPCs this peer has in
// flight over its own UDP transport fail at once, in-flight handlers
// finish.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	close(p.done)
	err := p.ln.Close()
	// Sever open server connections: a handler blocked reading the next
	// exchange of a pooled client connection unblocks immediately
	// instead of idling out its deadline.
	for _, c := range conns {
		_ = c.Close()
	}
	if p.udp != nil {
		// Before the wait: a handler blocked on an outgoing exchange
		// returns now instead of at its deadline.
		err = errors.Join(err, p.udp.Close())
	}
	p.wg.Wait()
	if p.pool != nil {
		p.pool.Close()
	}
	return err
}

// Join connects the peer into an existing overlay through any bootstrap
// member and announces it to everyone it learns about.
func (p *Peer) Join(bootstrap string) error {
	resp, err := p.rpcRetry(bootstrap, request{Type: msgJoin, Addr: p.addr}, p.cfg.RPCTimeout)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.members[bootstrap] = true
	for _, m := range resp.Members {
		if m != p.addr {
			p.members[m] = true
		}
	}
	members := p.memberListLocked()
	p.mu.Unlock()
	// Announce to the rest (best effort; the bootstrap already knows).
	for _, m := range members {
		if m == bootstrap {
			continue
		}
		_, _ = p.rpcRetry(m, request{Type: msgJoin, Addr: p.addr}, p.cfg.RPCTimeout)
	}
	return nil
}

// Members returns the known membership, self excluded, sorted.
func (p *Peer) Members() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.memberListLocked()
}

func (p *Peer) memberListLocked() []string {
	out := make([]string, 0, len(p.members))
	for m := range p.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Provide registers a service instance this peer can host.
func (p *Peer) Provide(in *service.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.provides[in.ID] = in
	return nil
}

// Available returns the currently unreserved capacity.
func (p *Peer) Available() resource.Vector {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ledger.Available()
}

// ReserveLocal reserves capacity for workload outside any QSA session
// (e.g. the owner's own use); it reports whether the reservation fit.
// Release it with ReleaseLocal.
func (p *Peer) ReserveLocal(cpu, mem float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ledger.Reserve(resource.Vec2(cpu, mem))
}

// ReleaseLocal returns a ReserveLocal reservation.
func (p *Peer) ReleaseLocal(cpu, mem float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ledger.Release(resource.Vec2(cpu, mem))
}

// ActiveSessions returns the number of sessions holding capacity here.
func (p *Peer) ActiveSessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// serve accepts connections until Close. Connections are tracked so
// shutdown can sever ones parked between exchanges by a pooling
// client — their handler goroutines would otherwise idle in a read
// until the connection deadline.
func (p *Peer) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		p.conns[conn] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer func() {
				p.mu.Lock()
				delete(p.conns, conn)
				p.mu.Unlock()
				_ = conn.Close()
			}()
			p.handle(conn)
		}()
	}
}

func (p *Peer) handle(conn net.Conn) {
	// Generous deadline: a select request recurses through the remaining
	// hops before this handler can answer. The serve loop refreshes it
	// per exchange, so a pooled client connection stays serviceable
	// between requests without ever being deadline-free.
	if err := conn.SetDeadline(time.Now().Add(p.cfg.RPCTimeout * 16)); err != nil {
		// The connection is already dead; nothing can be sent on it.
		return
	}
	// Codec negotiation is the first byte: '{' opens a JSON object, a
	// binary frame opens with the wire magic. The reply always uses the
	// request's codec, so mixed-codec overlays interoperate and a JSON
	// rollback needs no flag day. The choice is per connection: clients
	// never switch codecs mid-stream.
	br := getReader(conn)
	defer putReader(br)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	// Everything that is not a binary frame — including malformed
	// garbage — takes the JSON path, whose decoder surfaces a bad-request
	// reply instead of a silent hangup.
	var codec wire.Codec = wire.JSON{}
	if wire.IsBinary(first) {
		codec = p.bin
	}
	p.serveConn(conn, br, codec)
}

// reqPool recycles server-side request structs: the binary decoder
// reuses their slice capacity, so a warm server decodes requests
// without allocating.
var reqPool = sync.Pool{New: func() any { return new(request) }}

// serveConn serves codec exchanges until the stream ends — one message
// for a datagram connection, many for a pooled TCP one. Each exchange
// reads one message (readMessage), decodes it into the pooled request,
// dispatches it, and writes the reply in the same codec. A message that
// is framed but does not decode gets a bad-request reply and the
// connection keeps serving: the framing (a JSON line, a binary frame)
// leaves the stream aligned on the next message. Bytes that cannot be
// framed end the connection — after a bad-request reply for an
// oversized JSON line; silently for a broken binary frame, which
// carries no request ID to correlate a reply with.
func (p *Peer) serveConn(conn net.Conn, br *bufio.Reader, codec wire.Codec) {
	buf := wire.GetBuf(512)
	defer wire.PutBuf(buf)
	req := reqPool.Get().(*request)
	// Handlers copy what they keep, so the request can be recycled when
	// the connection ends (the binary decoder reuses its slice capacity
	// across the exchanges in between).
	defer reqPool.Put(req)
	for {
		var err error
		buf.B, err = readMessage(br, codec, buf.B)
		oversized := errors.Is(err, wire.ErrLineTooLong)
		if err != nil && !oversized {
			// A clean EOF is the client closing (or parking) the connection.
			return
		}
		var reqID uint64
		if err == nil {
			reqID, err = codec.DecodeRequest(buf.B, req)
		}
		var resp response
		if err != nil {
			resp = response{Err: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = p.dispatch(*req)
		}
		buf.B, err = codec.AppendResponse(buf.B[:0], reqID, &resp)
		if err != nil {
			return
		}
		if _, err := conn.Write(buf.B); err != nil || oversized {
			return
		}
		if err := conn.SetDeadline(time.Now().Add(p.cfg.RPCTimeout * 16)); err != nil {
			return
		}
	}
}

func (p *Peer) dispatch(req request) response {
	switch req.Type {
	case msgJoin:
		return p.handleJoin(req)
	case msgLeave:
		return p.handleLeave(req)
	case msgLookup:
		return p.handleLookup(req)
	case msgProbe:
		return p.handleProbe()
	case msgSelect:
		return p.handleSelect(req)
	case msgReserve:
		return p.handleReserve(req)
	case msgRelease:
		return p.handleRelease(req)
	case msgAggregate:
		return p.handleAggregate(req)
	default:
		return response{Err: fmt.Sprintf("unknown message %q", req.Type)}
	}
}

func (p *Peer) handleJoin(req request) response {
	p.mu.Lock()
	defer p.mu.Unlock()
	members := append(p.memberListLocked(), p.addr)
	if req.Addr != "" && req.Addr != p.addr {
		p.members[req.Addr] = true
	}
	return response{OK: true, Members: members}
}

func (p *Peer) handleLeave(req request) response {
	p.mu.Lock()
	delete(p.members, req.Addr)
	delete(p.probes, req.Addr)
	p.mu.Unlock()
	return response{OK: true}
}

// handleLookup answers with this peer's offers for the service named in
// req.Service (the single-service form older initiators send) and for
// every service in req.Services (one lookup carries the whole path).
func (p *Peer) handleLookup(req request) response {
	p.mu.Lock()
	defer p.mu.Unlock()
	var offers []offer
	for _, in := range p.provides {
		if svc := string(in.Service); svc == req.Service || slices.Contains(req.Services, svc) {
			offers = append(offers, offer{Instance: ToWire(in), Provider: p.addr})
		}
	}
	sort.Slice(offers, func(i, j int) bool { return offers[i].Instance.ID < offers[j].Instance.ID })
	return response{OK: true, Offers: offers}
}

func (p *Peer) handleProbe() response {
	p.mu.Lock()
	defer p.mu.Unlock()
	return response{
		OK:        true,
		Avail:     p.ledger.Available(),
		UptimeSec: time.Since(p.start).Seconds(),
	}
}

// errUnsound answers a request carrying a quantity that is not
// resource.Sound: the binary codec decodes any float bits.
const errUnsound = "bad request: negative or non-finite quantity"

// holding is what one session holds on this host: the hops it booked
// here (a session may place several components on one host) and their
// summed demand, all expiring on one timer.
type holding struct {
	hops  []int
	held  resource.Vector
	timer *time.Timer
}

// handleReserve books hop req.Idx of session req.SessionID. It is
// idempotent: holdings are keyed by (session, hop), so a repeat — a
// retry after a lost reply, a duplicated datagram — books nothing, adds
// no count and answers OK.
func (p *Peer) handleReserve(req request) response {
	if !resource.Sound(req.CPU, req.Memory, req.DurationSec) {
		return response{Err: errUnsound}
	}
	sp := p.spans.Join(obs.SpanContext{Trace: req.TraceID, Span: req.SpanID}, 0)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.sessions[req.SessionID]
	if h == nil || !slices.Contains(h.hops, req.Idx) {
		need := resource.Vec2(req.CPU, req.Memory)
		if !p.ledger.Reserve(need) {
			p.tele.admitRejected.Inc()
			sp.End(obs.Event{Stage: obs.StageAdmission, At: p.addr, Inst: req.InstanceID,
				Session: req.SessionID, Err: "insufficient resources"})
			return response{Err: "insufficient resources"}
		}
		p.tele.admitOK.Inc()
		if h == nil {
			sid := req.SessionID
			h = &holding{held: need}
			h.timer = time.AfterFunc(time.Duration(req.DurationSec*float64(time.Second)),
				func() { p.release(sid, h) })
			p.sessions[sid] = h
		} else {
			h.held = h.held.Add(need)
		}
		h.hops = append(h.hops, req.Idx)
	}
	sp.End(obs.Event{Stage: obs.StageAdmission, At: p.addr, Inst: req.InstanceID,
		Session: req.SessionID, OK: true})
	return response{OK: true}
}

func (p *Peer) handleRelease(req request) response {
	p.release(req.SessionID, nil)
	return response{OK: true}
}

// handleAggregate serves one remote aggregation request (the serving
// plane of DESIGN §4.3): the whole discover→compose→select→reserve
// pipeline runs on this peer on the client's behalf, gated by
// admission control when configured. A shed reply carries Shed plus a
// deterministic RetryAfterSec so the client backs off instead of
// hammering an overloaded peer; a shed request never reaches the
// pipeline, so it can never hold a reservation.
func (p *Peer) handleAggregate(req request) response {
	if len(req.Services) == 0 {
		return response{Err: "aggregate: no services"}
	}
	if !resource.Sound(req.MinRate, req.DurationSec) {
		return response{Err: errUnsound}
	}
	start := time.Now()
	if p.admit != nil {
		v := p.admit.acquire(req.Priority, req.DTolerant,
			time.Duration(req.Deadline*float64(time.Second)))
		if !v.run {
			p.tele.serveSheds[v.reason].Inc()
			return response{Err: "shed: " + v.reason, Shed: true,
				RetryAfterSec: v.retryAfter.Seconds()}
		}
		defer p.admit.release()
		p.tele.serveAdmit.Inc()
		if v.waited > 0 {
			p.tele.serveWait.Observe(v.waited.Seconds())
		}
	}
	path := make([]service.Name, len(req.Services))
	for i, s := range req.Services {
		path[i] = service.Name(s)
	}
	// The request's rate floor becomes the user QoS vector, matching
	// the convention the closed-loop tests and qsapeer use.
	userQoS, err := qos.NewVector(qos.Range("rate", req.MinRate, 1e9))
	if err != nil {
		return response{Err: err.Error()}
	}
	plan, err := p.Aggregate(path, userQoS, time.Duration(req.DurationSec*float64(time.Second)))
	p.tele.serveLat[serveClass(req.Priority)].Observe(time.Since(start).Seconds())
	if err != nil {
		return response{Err: err.Error()}
	}
	return response{OK: true, SessionID: plan.SessionID, Chain: plan.Peers, Cost: plan.Cost}
}

// release frees what session sid holds here and stops its expiry
// timer. A non-nil only frees that holding alone, so a timer that fired
// as a release stopped it cannot free a later holding of sid.
func (p *Peer) release(sid string, only *holding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.sessions[sid]
	if h == nil || (only != nil && h != only) {
		return
	}
	h.timer.Stop()
	p.ledger.Release(h.held)
	delete(p.sessions, sid)
}

// probe measures a candidate (with a short-lived cache). The prober's own
// RTT measurement supplies the network term.
func (p *Peer) probe(addr string) probeResult {
	p.mu.Lock()
	if cached, ok := p.probes[addr]; ok && time.Since(cached.measured) < p.cfg.ProbeCacheTTL {
		p.mu.Unlock()
		p.tele.probeHits.Inc()
		return cached
	}
	p.mu.Unlock()
	p.tele.probeMisses.Inc()
	// Retried (idempotent): one dropped dial must not mark a live peer
	// dead. The measured RTT then includes any backoff, which only makes
	// a lossy link look worse — exactly what Φ's network term wants.
	start := time.Now()
	resp, err := p.rpcRetry(addr, request{Type: msgProbe}, p.cfg.RPCTimeout)
	res := probeResult{measured: time.Now()}
	if err == nil {
		res.alive = true
		res.avail = resp.Avail
		res.uptime = time.Duration(resp.UptimeSec * float64(time.Second))
		res.rtt = time.Since(start)
	}
	p.mu.Lock()
	p.probes[addr] = res
	p.mu.Unlock()
	return res
}

// netTerm converts a measured RTT into Φ's network term: a prototype has
// no pairwise bottleneck-bandwidth oracle, so 100/(1+RTT_ms) stands in
// (closer peers look better), normalized against bNet = 1.
func netTerm(rtt time.Duration) float64 {
	return 100 / (1 + float64(rtt.Milliseconds()))
}

// selectNext is one hop-by-hop selection step executed AT THIS PEER.
// Measuring is the prototype's own part — an RTT probe per candidate,
// with netTerm standing in for the bandwidth oracle; the filters and the
// two-tier Φ argmax are selection.Decide. With report set it also
// returns the per-candidate decision record for the WireHop trace.
func (p *Peer) selectNext(inst *service.Instance, candidates []string, duration time.Duration, report bool) (string, bool, string, []WireCand) {
	var cands []WireCand
	var note func(int, float64, string)
	if report {
		cands = make([]WireCand, len(candidates))
		note = func(i int, phi float64, reason string) {
			cands[i] = WireCand{Addr: candidates[i], Phi: phi, Reason: reason}
		}
	}
	i, mode := selection.Decide(len(candidates), func(i int) selection.Candidate {
		if candidates[i] == p.addr {
			return selection.Candidate{Self: true}
		}
		res := p.probe(candidates[i])
		switch {
		case !res.alive:
			return selection.Candidate{Dead: true}
		case !res.avail.Fits(inst.R):
			return selection.Candidate{Infeasible: true}
		}
		return selection.Candidate{Phi: selection.PhiValue(p.cfg.Weights, res.avail, netTerm(res.rtt), inst.R, 1),
			UptimeOK: res.uptime >= duration}
	}, nil, p.tele.selection, note)
	if i < 0 {
		return "", false, mode, cands
	}
	return candidates[i], true, mode, cands
}

// handleSelect continues the distributed reverse-flow selection: choose
// the host for instance Idx, then forward to it for Idx−1.
func (p *Peer) handleSelect(req request) response {
	if req.Idx < 0 || req.Idx >= len(req.Instances) {
		return response{Err: "bad hop index"}
	}
	if !resource.Sound(req.DurationSec) {
		return response{Err: errUnsound}
	}
	inst, err := FromWire(req.Instances[req.Idx])
	if err != nil {
		return response{Err: err.Error()}
	}
	// Join the initiator's trace: this hop's work becomes a child of the
	// span whose context rode the request. Inert when this peer has no
	// tracer or the request is untraced.
	sp := p.spans.Join(obs.SpanContext{Trace: req.TraceID, Span: req.SpanID}, 0)
	// done stamps the hop's decision on the span; every return ends it
	// exactly once.
	done := func(chosen, mode string, ok bool) {
		sp.End(obs.Event{Stage: obs.StageSelection, Hop: req.Idx + 1, Inst: inst.ID,
			At: p.addr, Chosen: chosen, Mode: mode, OK: ok})
	}
	duration := time.Duration(req.DurationSec * float64(time.Second))
	chosen, ok, mode, cands := p.selectNext(inst, req.Candidates[inst.ID], duration, req.Trace)
	var hops []WireHop
	if req.Trace {
		hops = []WireHop{{Idx: req.Idx, At: p.addr, Inst: inst.ID, Chosen: chosen, Mode: mode, Cands: cands}}
	}
	if !ok {
		done("", mode, false)
		return response{Err: fmt.Sprintf("no selectable peer for %s", inst.ID), Hops: hops}
	}
	chain := append([]string{chosen}, req.Chain...)
	if req.Idx == 0 {
		done(chosen, mode, true)
		return response{OK: true, Chain: chain, Hops: hops}
	}
	next := req
	next.Idx--
	next.Chain = chain
	if sp.Active() {
		// The forwarded hop parents under this hop's span, stitching the
		// recursion into one causal chain across peers.
		ctx := sp.Context()
		next.TraceID, next.SpanID = ctx.Trace, ctx.Span
	}
	// Select is forwarded exactly once: a retry would re-run the whole
	// downstream selection recursion (amplifying probe traffic), and a
	// failed hop already fails the aggregation cleanly at the initiator.
	resp, err := p.rpc(chosen, next, p.cfg.RPCTimeout*time.Duration(req.Idx+1))
	if err != nil {
		// Keep whatever partial hop records came back so the initiator
		// can still explain how far selection got.
		out := response{Err: err.Error(), Hops: hops}
		if resp != nil {
			out.Hops = append(out.Hops, resp.Hops...)
		}
		done(chosen, mode, false)
		return out
	}
	out := *resp
	out.Hops = append(hops, out.Hops...)
	done(chosen, mode, out.OK)
	return out
}

// discover is Aggregate's discovery stage: every member (this peer
// included) gets one lookup naming every service of the path, and the
// offers that come back are binned by their own service name — a name
// that occurs twice in the path fills both layers. It returns one layer
// of instances per path position, sorted by ID, and each instance's
// provider addresses, sorted, each listed once. A member whose lookup
// fails after retries contributes nothing and is counted in
// discovery.lookup_failed.
func (p *Peer) discover(path []string) ([][]*service.Instance, map[string][]string) {
	members := p.Members()
	lookup := request{Type: msgLookup, Services: path}
	results := make(chan []offer, len(members)+1)
	results <- p.handleLookup(lookup).Offers
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			resp, err := p.rpcRetry(m, lookup, p.cfg.RPCTimeout)
			if err != nil {
				p.tele.lookupFail.Inc()
				return
			}
			// results is buffered to the fan-out: this send never blocks.
			results <- resp.Offers
		}(m)
	}
	wg.Wait()
	close(results)

	layerOf := make(map[string][]int, len(path))
	for k, name := range path {
		layerOf[name] = append(layerOf[name], k)
	}
	layers := make([][]*service.Instance, len(path))
	providers := make(map[string][]string)     // instance ID -> provider addrs
	seen := make([]map[string]bool, len(path)) // per layer: instance IDs already in it
	for k := range seen {
		seen[k] = make(map[string]bool)
	}
	for offers := range results {
		for _, off := range offers {
			for i, k := range layerOf[off.Instance.Service] {
				in, err := FromWire(off.Instance)
				if err != nil {
					continue
				}
				if !seen[k][in.ID] {
					seen[k][in.ID] = true
					layers[k] = append(layers[k], in)
				}
				if i == 0 { // once per offer, however many positions name it
					providers[in.ID] = append(providers[in.ID], off.Provider)
				}
			}
		}
	}
	for _, layer := range layers {
		sort.Slice(layer, func(i, j int) bool { return layer[i].ID < layer[j].ID })
	}
	for id := range providers {
		sort.Strings(providers[id])
	}
	return layers, providers
}

// Aggregate runs the full two-tier model from this peer as the user's
// host: core's attempt loop over this overlay (rpcGrid) with
// core.StrategyQSA, which composes with QCS, selects hop by hop over the
// network, and recomposes after a selection or admission failure. Every
// failure is a *core.ErrAggregation naming its stage.
func (p *Peer) Aggregate(path []service.Name, userQoS qos.Vector, duration time.Duration) (*Plan, error) {
	names := make([]string, len(path))
	for i, svc := range path {
		names[i] = string(svc)
	}
	var rid uint64
	if p.spans.Enabled() {
		p.mu.Lock()
		p.nextReq++
		rid = p.nextReq
		p.mu.Unlock()
	}
	// The root span covers the aggregation, the loop's stage spans are its
	// children, and remote legs parent under their stage over the wire.
	root := p.spans.Root(rid)
	start := time.Now()
	g := &rpcGrid{p: p, rid: rid, duration: duration, names: names}
	pl := core.Pipeline{
		Strategy: core.StrategyQSA,
		Compose:  compose.Config{Weights: p.cfg.Weights, Obs: p.tele.compose},
		Req:      rid,
		Spans:    p.spans,
		Root:     root.Context(),
	}
	composed, err := pl.Run(g, &service.Request{App: &service.Application{Path: path}, UserQoS: userQoS})
	p.tele.aggLat.Observe(time.Since(start).Seconds())
	if root.Active() {
		ev := obs.Event{User: p.addr, App: strings.Join(names, "+")}
		if err != nil {
			ev.Stage, ev.Err = core.EventStage(err), err.Error()
		} else {
			ev.OK, ev.Session = true, g.sid
		}
		root.End(ev)
	}
	if err != nil {
		return nil, err
	}

	plan := &Plan{SessionID: g.sid, Peers: append([]string(nil), g.chain...), Cost: composed.Cost}
	for _, in := range composed.Instances {
		plan.Instances = append(plan.Instances, in.ID)
	}
	if p.cfg.MonitorInterval > 0 {
		sess := &initiated{
			grid:     g,
			deadline: time.Now().Add(duration),
			status:   StatusActive,
			span:     root.Child(),
		}
		p.mu.Lock()
		p.initiated[g.sid] = sess
		p.mu.Unlock()
		p.wg.Add(1)
		go p.monitor(sess)
	}
	return plan, nil
}

// rpcGrid is the core.Grid of one aggregation: the member fan-out, the
// select recursion and a reserve per host with rollback. It times each
// stage into agg.stage_seconds.<stage>. The monitor recovers over it.
type rpcGrid struct {
	p         *Peer
	rid       uint64
	duration  time.Duration
	names     []string            // the path's services
	providers map[string][]string // instance ID -> provider addrs
	path      []*service.Instance // the path admission was last asked for
	chain     []string            // its hosts; recovery re-homes them under Peer.mu
	sid       string
	stageAt   time.Time
}

// Discover implements core.Grid.
func (g *rpcGrid) Discover() ([][]*service.Instance, error) {
	if len(g.names) == 0 {
		return nil, errors.New("empty path")
	}
	layers, providers := g.p.discover(g.names)
	g.providers = providers
	return layers, nil
}

// Select implements core.Grid: distributed hop-by-hop selection,
// starting at this peer on the user side.
func (g *rpcGrid) Select(path []*service.Instance, sel obs.SpanContext) error {
	specs := make([]WireInstance, len(path))
	cands := make(map[string][]string, len(path))
	for i, in := range path {
		specs[i] = ToWire(in)
		cands[in.ID] = g.providers[in.ID]
	}
	tr := g.p.cfg.Tracer
	resp := g.p.handleSelect(request{Type: msgSelect, Instances: specs, Candidates: cands,
		Idx: len(specs) - 1, UserAddr: g.p.addr, DurationSec: g.duration.Seconds(),
		Trace: tr != nil, TraceID: sel.Trace, SpanID: sel.Span})
	for _, wh := range resp.Hops {
		// The wire-level hop reports, user side first; Hop is 1-based.
		ev := obs.Event{Kind: obs.KindHop, Req: g.rid, Hop: wh.Idx + 1, Inst: wh.Inst,
			At: wh.At, Chosen: wh.Chosen, Mode: wh.Mode, Trace: sel.Trace, Span: sel.Span}
		for _, c := range wh.Cands {
			ev.Cands = append(ev.Cands, obs.Candidate{Peer: c.Addr, Phi: c.Phi, Reason: c.Reason})
		}
		tr.Emit(ev)
	}
	if !resp.OK {
		return errors.New(resp.Err)
	}
	if len(resp.Chain) != len(path) {
		return fmt.Errorf("selection returned %d hosts for %d components", len(resp.Chain), len(path))
	}
	g.chain = resp.Chain
	return nil
}

// Admit implements core.Grid: reserve on every selected host, rolling
// back on the first failure.
func (g *rpcGrid) Admit(path []*service.Instance, adm obs.SpanContext) error {
	p := g.p
	g.path = path
	p.mu.Lock()
	p.nextSess++
	g.sid = fmt.Sprintf("%s/%d", p.addr, p.nextSess)
	p.mu.Unlock()
	for i, host := range g.chain {
		if err := g.reserve(host, i, path[i], g.duration, adm); err != nil {
			p.releaseOn(g.chain[:i], g.sid)
			return err
		}
	}
	return nil
}

// reserve books in's demand on host as the session's component hop for
// d, retried like every idempotent RPC: the host keys it by (session,
// hop). A failure fails the session, so a reserve that got no answer —
// it may have run with its reply lost — is released here; a host that
// answered "insufficient resources" holds nothing.
func (g *rpcGrid) reserve(host string, hop int, in *service.Instance, d time.Duration, ctx obs.SpanContext) error {
	p := g.p
	resp, err := p.rpcRetry(host, request{Type: msgReserve, SessionID: g.sid, InstanceID: in.ID, Idx: hop,
		CPU: in.R[resource.CPU], Memory: in.R[resource.Memory], DurationSec: d.Seconds(),
		TraceID: ctx.Trace, SpanID: ctx.Span}, p.cfg.RPCTimeout)
	if err != nil && resp == nil {
		p.releaseOn([]string{host}, g.sid)
	}
	return err
}

// Providers implements core.RecoveryGrid: the member fan-out for inst's
// one service. Every member is asked whoever asks, so at plays no part.
func (g *rpcGrid) Providers(_ string, inst *service.Instance) []string {
	_, providers := g.p.discover([]string{string(inst.Service)})
	return providers[inst.ID]
}

// Choose implements core.RecoveryGrid: the select RPC for the one
// instance at member at (handled locally when at is this peer, the
// user), then a reserve of hop k on the host it returns for the
// remaining seconds. Select is sent once, as in selection.
func (g *rpcGrid) Choose(at string, k int, inst *service.Instance, cands []string, remaining float64, rec obs.SpanContext) (string, bool) {
	p := g.p
	req := request{Type: msgSelect, Instances: []WireInstance{ToWire(inst)},
		Candidates: map[string][]string{inst.ID: cands}, DurationSec: remaining,
		TraceID: rec.Trace, SpanID: rec.Span}
	resp := &response{}
	if at == p.addr {
		*resp = p.handleSelect(req)
	} else if r, err := p.rpc(at, req, p.cfg.RPCTimeout); err == nil {
		resp = r
	}
	if !resp.OK || len(resp.Chain) != 1 {
		return "", false
	}
	host := resp.Chain[0]
	d := time.Duration(remaining * float64(time.Second))
	return host, g.reserve(host, k, inst, d, rec) == nil
}

// Names implements core.Grid.
func (g *rpcGrid) Names() (string, []string) {
	return g.sid, append([]string(nil), g.chain...)
}

// Stage implements core.Grid: the wall time of each stage.
func (g *rpcGrid) Stage(s core.Stage, begin bool) {
	if begin {
		g.stageAt = time.Now()
	} else {
		g.p.tele.stageLat[s.String()].Observe(time.Since(g.stageAt).Seconds())
	}
}

// SessionStatus reports the lifecycle state of a session this peer
// initiated; only available when MonitorInterval is set.
func (p *Peer) SessionStatus(sid string) (SessionStatus, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.initiated[sid]
	if !ok {
		return "", false
	}
	return s.status, true
}

// SessionHosts returns the current hosts of an initiated session (they
// change when recovery re-homes a component).
func (p *Peer) SessionHosts(sid string) ([]string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.initiated[sid]
	if !ok {
		return nil, false
	}
	return append([]string(nil), s.grid.chain...), true
}

// monitor implements runtime failure detection and recovery for one
// initiated session: each interval, every host is probed, and a dead
// host's component is re-homed by core.Recover over the session's grid.
// Components are visited from the user side back, so a component's
// downstream neighbour is live before it is asked to select. An
// unrecoverable loss fails the session and releases the surviving
// reservations.
func (p *Peer) monitor(sess *initiated) {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-ticker.C:
		}
		if time.Now().After(sess.deadline) {
			// Only this goroutine moves the status, and it closes the
			// session span first: whoever sees the session end finds
			// the span in the stream.
			sess.span.End(obs.Event{Stage: obs.StageSession, OK: true})
			p.mu.Lock()
			sess.status = StatusCompleted
			p.mu.Unlock()
			return
		}
		g := sess.grid // only this goroutine writes g.chain now
		for k := len(g.chain) - 1; k >= 0; k-- {
			if p.probe(g.chain[k]).alive {
				continue
			}
			remaining := time.Until(sess.deadline)
			if remaining <= 0 {
				break // the session is about to complete anyway
			}
			host, ok := core.Recover(g, p.addr, g.chain, g.path, k, remaining.Seconds(), sess.span)
			if !ok {
				p.failInitiated(sess)
				return
			}
			p.mu.Lock()
			g.chain[k] = host
			p.mu.Unlock()
		}
	}
}

// failInitiated closes the session span, marks the session failed and
// releases surviving reservations.
func (p *Peer) failInitiated(sess *initiated) {
	sess.span.End(obs.Event{Stage: obs.StageSession, Err: "component host departed; recovery failed"})
	p.mu.Lock()
	sess.status = StatusFailed
	hosts := append([]string(nil), sess.grid.chain...)
	p.mu.Unlock()
	p.releaseOn(hosts, sess.grid.sid)
}

// releaseOn releases session sid on hosts, best effort (retried —
// release is idempotent): a host that cannot be reached holds its
// reservation until the session duration expires it.
func (p *Peer) releaseOn(hosts []string, sid string) {
	for _, h := range hosts {
		_, _ = p.rpcRetry(h, request{Type: msgRelease, SessionID: sid}, p.cfg.RPCTimeout)
	}
}
