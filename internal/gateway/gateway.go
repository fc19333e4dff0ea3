// Package gateway implements tsgate: a session-routing tier in front of
// a fleet of tsserved backends. It consistent-hash-routes new sessions
// across healthy backends with bounded load, health-checks each backend
// through the ingest-port probe (plus passive dial/stream failure
// signals) feeding a per-backend circuit breaker, and relays each
// session's wire stream frame by frame while holding the frames in a
// replay ring — so when a backend dies mid-session, the session restarts
// on a survivor from frame zero and the client never learns anything
// happened. When every backend is down or saturated it sheds with the
// protocol's typed busy/draining codes and an honest retry hint.
//
// The gateway speaks the resumable protocol on the client side (token,
// hello, per-frame acks, parked state) and the plain protocol on the
// backend side: backend failover is the gateway's job, client-link
// failover is the client's, and the replay ring serves both.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/server"
)

// ErrGatewayClosed is returned by Serve after Shutdown or Close.
var ErrGatewayClosed = errors.New("gateway: closed")

// Config tunes a Gateway.
type Config struct {
	// Name identifies this gateway: it is the Via label stamped on
	// forwarded sessions and the name in the fleet stats. 0 means "tsgate".
	Name string
	// Backends is the initial backend list (ingest addresses).
	Backends []string
	// Replicas is the number of virtual ring points per backend. 0 means 64.
	Replicas int
	// LoadFactor bounds per-backend load: a backend is skipped when its
	// active sessions reach ceil(LoadFactor * (total+1) / healthy). Values
	// below 1 route like 1 (the bound never starves an empty fleet).
	// 0 means 1.25.
	LoadFactor float64
	// RingFrames bounds each session's replay ring (data frames retained
	// for backend failover, ~16 KB each at the encoder's frame size). A
	// session that outgrows the ring keeps streaming but can no longer
	// fail over; see DESIGN.md. 0 means 4096.
	RingFrames int
	// ProbeInterval is the health-check period per backend. 0 means 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange. 0 means 2s.
	ProbeTimeout time.Duration
	// BreakerBase is the first open-circuit probe backoff; it doubles per
	// failed probe up to BreakerMax. 0 means 500ms / 15s.
	BreakerBase time.Duration
	BreakerMax  time.Duration
	// RetryHint is the retry_after_ms attached to shed responses. 0 means 500ms.
	RetryHint time.Duration
	// ResumeGrace is how long an interrupted resumable session's state
	// (replay ring plus live backend leg) stays parked awaiting the
	// client. Keep it below the backends' IdleTimeout or the parked
	// backend leg idles out first (failover still recovers it). 0 means 30s.
	ResumeGrace time.Duration
	// IdleTimeout bounds the gap between client reads, as in the server.
	// 0 means 2m.
	IdleTimeout time.Duration
	// DialTimeout bounds each backend dial. 0 means 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds each backend write; it must comfortably exceed
	// the backends' queue wait (admission backpressure is an unread
	// socket). 0 means 2m.
	WriteTimeout time.Duration
	// ResponseTimeout bounds the wait for a backend's final response
	// after the trailer. 0 means 5m.
	ResponseTimeout time.Duration
	// Probe overrides the health-check client (tests inject failures
	// here). nil means server.Probe.
	Probe func(addr string, timeout time.Duration) (*server.Stats, error)
	// Dial overrides the backend transport. nil means TCP with DialTimeout.
	Dial func(addr string) (net.Conn, error)
	// Logger receives the gateway's structured log events (membership
	// changes, probes, reroutes, sheds). nil means discard.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "tsgate"
	}
	if c.Replicas == 0 {
		c.Replicas = 64
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.RingFrames == 0 {
		c.RingFrames = 4096
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.BreakerBase == 0 {
		c.BreakerBase = 500 * time.Millisecond
	}
	if c.BreakerMax == 0 {
		c.BreakerMax = 15 * time.Second
	}
	if c.RetryHint == 0 {
		c.RetryHint = 500 * time.Millisecond
	}
	if c.ResumeGrace == 0 {
		c.ResumeGrace = 30 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 2 * time.Minute
	}
	if c.ResponseTimeout == 0 {
		c.ResponseTimeout = 5 * time.Minute
	}
	if c.Probe == nil {
		c.Probe = server.Probe
	}
	if c.Dial == nil {
		dt := c.DialTimeout
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dt)
		}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// backend is one tsserved instance as the gateway sees it: the circuit
// breaker (its own lock), the prober's stop channel, and routing/stat
// counters guarded by the gateway's lock.
type backend struct {
	addr string
	br   *breaker

	stop     chan struct{}
	stopOnce sync.Once

	// Guarded by Gateway.mu.
	name      string // from the last probe's stats
	draining  bool   // removed from membership; no new routes
	active    int    // gateway sessions currently attached
	routed    int64  // sessions ever attached (reroutes re-count)
	rerouted  int64  // sessions moved OFF this backend after it failed
	declined  int64  // busy/draining answers that moved a session elsewhere
	lastStats *server.Stats
	lastProbe time.Time
}

func (b *backend) stopProber() { b.stopOnce.Do(func() { close(b.stop) }) }

// Gateway is the routing tier. Create with Listen or New, run with
// Serve, stop with Shutdown (graceful drain) or Close.
type Gateway struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	backends map[string]*backend
	ring     *hashRing
	closed   bool
	conns    int
	drainCh  chan struct{}

	// parked holds interrupted (and completed) resumable sessions, backend
	// leg and replay ring included, for Config.ResumeGrace.
	parked *proto.Lot[*gwSession]

	nextID         atomic.Uint64
	totalSessions  atomic.Int64
	totalFailed    atomic.Int64
	totalShed      atomic.Int64
	totalRerouted  atomic.Int64
	totalParked    atomic.Int64
	totalResumed   atomic.Int64
	totalExpired   atomic.Int64
	totalRelayedOK atomic.Int64

	// ringFrames counts data frames currently retained across every
	// session's replay ring — the gateway's dominant memory consumer.
	// Incremented at the single retention site (stream's data-frame case),
	// decremented by dropRing (overflow, session end, park expiry,
	// teardown).
	ringFrames atomic.Int64

	metrics *gatewayMetrics
	log     *slog.Logger

	start time.Time
}

// Listen binds the gateway's client listener on addr; call Serve next.
func Listen(addr string, cfg Config) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	return New(ln, cfg), nil
}

// New wraps an existing listener as a gateway. Most callers use Listen.
func New(ln net.Listener, cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:      cfg,
		ln:       ln,
		backends: make(map[string]*backend),
		ring:     buildRing(nil, cfg.Replicas),
		log:      cfg.Logger,
		start:    time.Now(),
	}
	// Expiry releases the backend leg and the ring before the expired
	// counter moves, so a scrape never sees the count ahead of the gauges.
	g.parked = proto.NewLot(cfg.ResumeGrace, g.release, func(sess *gwSession) {
		g.totalExpired.Add(1)
		g.log.Info("parked session expired", "session", sess.id, "key", sess.key, "frames", sess.framesIn)
	})
	// Metrics before SetBackends: the probers it spawns observe probe
	// latency from their first exchange.
	g.metrics = newGatewayMetrics(g)
	g.SetBackends(cfg.Backends)
	return g
}

// Addr returns the bound client-facing address.
func (g *Gateway) Addr() net.Addr { return g.ln.Addr() }

// Serve accepts and relays connections until Shutdown or Close.
func (g *Gateway) Serve() error {
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return ErrGatewayClosed
			}
			return err
		}
		g.mu.Lock()
		g.conns++
		g.mu.Unlock()
		go func() {
			defer g.connDone()
			g.handle(conn)
		}()
	}
}

func (g *Gateway) connDone() {
	g.mu.Lock()
	g.conns--
	if g.conns == 0 && g.drainCh != nil {
		close(g.drainCh)
		g.drainCh = nil
	}
	g.mu.Unlock()
}

// Shutdown stops accepting and drains in-flight sessions. If ctx expires
// first, ctx.Err is returned (connections are abandoned to their own
// deadlines). Parked sessions and probers are torn down either way.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	already := g.closed
	g.closed = true
	var done chan struct{}
	if g.conns > 0 {
		if g.drainCh == nil {
			g.drainCh = make(chan struct{})
		}
		done = g.drainCh
	}
	g.mu.Unlock()
	if !already {
		g.ln.Close()
	}

	err := error(nil)
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	g.teardown()
	return err
}

// Close stops the gateway immediately (no drain).
func (g *Gateway) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Shutdown(ctx); err != nil && err != context.Canceled {
		return err
	}
	return nil
}

// teardown discards parked sessions and stops every prober.
func (g *Gateway) teardown() {
	g.parked.Close()
	g.mu.Lock()
	bs := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		bs = append(bs, b)
	}
	g.mu.Unlock()
	for _, b := range bs {
		b.stopProber()
	}
}

// SetBackends replaces the membership with addrs: new backends are added
// and warm in (circuit open, immediate probe; no sessions until a probe
// proves them), missing ones drain (no new routes; fully removed when
// their last gateway session ends), and a draining backend re-added is
// simply undrained. Safe to call at any time — SIGHUP handling and the
// admin endpoint land here.
func (g *Gateway) SetBackends(addrs []string) (added, removed []string) {
	now := time.Now()
	keep := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a != "" {
			keep[a] = true
		}
	}
	var started []*backend
	g.mu.Lock()
	for a := range keep {
		if b, ok := g.backends[a]; ok {
			if b.draining {
				b.draining = false
				added = append(added, a)
			}
			continue
		}
		b := &backend{
			addr: a,
			br:   newBreaker(g.cfg.BreakerBase, g.cfg.BreakerMax, CircuitOpen, now),
			stop: make(chan struct{}),
		}
		g.backends[a] = b
		started = append(started, b)
		added = append(added, a)
	}
	for a, b := range g.backends {
		if keep[a] || b.draining {
			continue
		}
		b.draining = true
		removed = append(removed, a)
		if b.active == 0 {
			delete(g.backends, a)
			b.stopProber()
		}
	}
	g.rebuildRingLocked()
	g.mu.Unlock()
	for _, b := range started {
		go g.probeLoop(b)
	}
	if len(added) > 0 || len(removed) > 0 {
		g.log.Info("membership changed", "added", added, "removed", removed)
	}
	return added, removed
}

// BackendAddrs returns the current (non-draining) membership.
func (g *Gateway) BackendAddrs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for a, b := range g.backends {
		if !b.draining {
			out = append(out, a)
		}
	}
	return out
}

// rebuildRingLocked rebuilds the hash ring from the non-draining
// backends. Callers hold g.mu.
func (g *Gateway) rebuildRingLocked() {
	live := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if !b.draining {
			live = append(live, b)
		}
	}
	g.ring = buildRing(live, g.cfg.Replicas)
}

// probeLoop is one backend's health checker: a probe per ProbeInterval
// while the circuit is closed, and backoff-gated probes (open →
// half-open → closed/open) while it is not. It is the only goroutine
// that closes the circuit; session relays only open it.
func (g *Gateway) probeLoop(b *backend) {
	t := time.NewTimer(0) // immediate first probe: warm-in is not delayed
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
		}
		if b.br.probeDue(time.Now()) {
			prior, _, _ := b.br.current()
			probeStart := time.Now()
			st, err := g.cfg.Probe(b.addr, g.cfg.ProbeTimeout)
			g.metrics.probeSeconds.With(b.addr).Observe(time.Since(probeStart).Seconds())
			if err != nil {
				b.br.fail(err, time.Now())
				if prior == CircuitClosed {
					g.log.Warn("backend probe failed; circuit opened", "backend", b.addr, "error", err.Error())
				} else {
					g.log.Debug("backend probe failed", "backend", b.addr, "error", err.Error())
				}
			} else {
				b.br.ok()
				if prior != CircuitClosed {
					g.log.Info("backend healthy; circuit closed", "backend", b.addr)
				}
				g.mu.Lock()
				b.lastStats = st
				b.lastProbe = time.Now()
				if st.Name != "" {
					b.name = st.Name
				}
				g.mu.Unlock()
			}
		}
		t.Reset(g.cfg.ProbeInterval)
	}
}

// Routing failures, classified for the shed response.
var (
	errNoHealthy = errors.New("no healthy backend")
	errAllTried  = errors.New("every healthy backend already failed this session or is at its load bound")
)

// pick chooses a backend for key: the first backend in ring order from
// key's point that is healthy, not draining, not already tried by this
// session, and under the bounded-load cap. The cap — ceil(LoadFactor ×
// (active+1) / healthy) — guarantees an untried healthy backend always
// admits when LoadFactor ≥ 1 (if all were at the cap, total active would
// exceed itself). The picked backend's active count is taken under the
// same lock, so concurrent picks see each other.
func (g *Gateway) pick(key string, tried map[string]bool) (*backend, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	healthy, active := 0, 0
	for _, b := range g.backends {
		active += b.active
		if !b.draining && b.br.healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		return nil, errNoHealthy
	}
	lf := math.Max(g.cfg.LoadFactor, 1)
	cap := int(math.Ceil(lf * float64(active+1) / float64(healthy)))
	var picked *backend
	g.ring.walk(key, func(b *backend) bool {
		if tried[b.addr] || b.draining || !b.br.healthy() || b.active >= cap {
			return true
		}
		picked = b
		return false
	})
	if picked == nil {
		return nil, errAllTried
	}
	picked.active++
	picked.routed++
	return picked, nil
}

// detach releases a session's backend attachment: the counter drops (a
// draining backend whose last session left is finalized) and the backend
// leg and its reader close. Safe on a session with no attachment.
func (g *Gateway) detach(s *gwSession) {
	g.mu.Lock()
	if b := s.be; b != nil {
		b.active--
		if b.draining && b.active == 0 {
			if g.backends[b.addr] == b {
				delete(g.backends, b.addr)
			}
			b.stopProber()
		}
		s.be = nil
	}
	g.mu.Unlock()
	if s.bconn != nil {
		close(s.done)
		s.bconn.Close()
		s.bconn = nil
	}
}

// dropRing drops a session's replay ring for good and settles the
// fleet-wide retained-frame gauge. Called once the ring can never be
// replayed again (overflow, session over, park expired, teardown);
// idempotent.
func (g *Gateway) dropRing(s *gwSession) {
	g.ringFrames.Add(-int64(s.ring.Len()))
	s.ring.Drop()
}

// release lets go of everything a session holds: backend leg and replay
// ring. It is also the park lot's release for expired and flushed
// sessions.
func (g *Gateway) release(s *gwSession) {
	g.detach(s)
	g.dropRing(s)
}
