// Package faultnet provides deterministic, seed-driven fault injection
// for net.Conn and net.Listener: connection resets at byte offsets,
// partial writes, payload corruption, added latency, and read stalls.
// It is the failure half of the ingest stack's test surface — the same
// wrappers drive unit tests (around net.Pipe), the end-to-end chaos
// suite, and the `tsserved -chaos` flag — so every failure mode the
// resilient client and the server's resume protocol claim to survive can
// be provoked on demand, reproducibly.
//
// Determinism: every wrapped connection derives its own rand stream from
// Spec.Seed and the connection's accept (or wrap) index, so a given
// (spec, connection index) pair always injects faults at the same byte
// offsets and operation counts. Wall-clock interleaving still varies, but
// WHAT is injected does not, which is what reproducing a chaos failure
// needs.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedReset is the error returned by a Conn operation that was cut
// short by an injected connection reset. The peer observes a genuine
// transport failure (the underlying connection is closed, with SO_LINGER
// zeroed on TCP so the peer sees RST, not FIN); this error is what the
// local, fault-injected side sees.
var ErrInjectedReset = fmt.Errorf("faultnet: injected connection reset")

// Spec configures which faults a wrapped connection injects and how
// often. The zero value injects nothing (Enabled reports false). "Every"
// fields are mean distances between injections — the actual gap is drawn
// uniformly from [1, 2*every) per event, so faults land at irregular but
// seed-reproducible offsets.
type Spec struct {
	// Seed is the root of every derived per-connection rand stream.
	Seed int64
	// ResetEvery injects a connection reset after a mean of this many
	// bytes have crossed the connection (reads + writes combined). A
	// reset that lands inside a Write cuts the write short at the exact
	// byte offset, so peers see mid-frame truncation. 0 disables.
	ResetEvery int64
	// CorruptEvery flips one bit per mean this-many bytes written,
	// exercising the frame CRCs. The caller's buffer is never mutated —
	// corruption happens on a copy. 0 disables.
	CorruptEvery int64
	// PartialWrites splits every Write into several smaller underlying
	// writes, exercising reassembly on the peer.
	PartialWrites bool
	// MaxLatency adds a uniform [0, MaxLatency) delay before each Read
	// and Write. 0 disables.
	MaxLatency time.Duration
	// StallEvery injects a read stall (the goroutine sleeps StallFor
	// before issuing the read) after a mean of this many Read calls —
	// long stalls trip a peer's idle timeout. 0 disables.
	StallEvery int64
	// StallFor is how long each injected read stall lasts.
	StallFor time.Duration
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.ResetEvery > 0 || s.CorruptEvery > 0 || s.PartialWrites ||
		s.MaxLatency > 0 || (s.StallEvery > 0 && s.StallFor > 0)
}

// String renders the spec in the same key=value form ParseSpec accepts.
func (s Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("seed", strconv.FormatInt(s.Seed, 10))
	if s.ResetEvery > 0 {
		add("reset", strconv.FormatInt(s.ResetEvery, 10))
	}
	if s.CorruptEvery > 0 {
		add("corrupt", strconv.FormatInt(s.CorruptEvery, 10))
	}
	if s.PartialWrites {
		add("partial", "1")
	}
	if s.MaxLatency > 0 {
		add("latency", s.MaxLatency.String())
	}
	if s.StallEvery > 0 {
		add("stall", strconv.FormatInt(s.StallEvery, 10))
		add("stallfor", s.StallFor.String())
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated key=value fault spec, e.g.
//
//	seed=7,reset=262144,corrupt=1048576,partial=1,latency=200us,stall=500,stallfor=300ms
//
// Keys: seed (int), reset (bytes), corrupt (bytes), partial (0/1),
// latency (duration), stall (reads), stallfor (duration). Unknown keys
// are errors, so a typo cannot silently disable a fault.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if strings.TrimSpace(text) == "" {
		return s, nil
	}
	for _, kv := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return s, fmt.Errorf("faultnet: spec entry %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		case "reset":
			s.ResetEvery, err = strconv.ParseInt(v, 10, 64)
		case "corrupt":
			s.CorruptEvery, err = strconv.ParseInt(v, 10, 64)
		case "partial":
			s.PartialWrites = v == "1" || v == "true"
		case "latency":
			s.MaxLatency, err = time.ParseDuration(v)
		case "stall":
			s.StallEvery, err = strconv.ParseInt(v, 10, 64)
		case "stallfor":
			s.StallFor, err = time.ParseDuration(v)
		default:
			return s, fmt.Errorf("faultnet: unknown spec key %q", k)
		}
		if err != nil {
			return s, fmt.Errorf("faultnet: spec %s=%q: %v", k, v, err)
		}
	}
	if s.StallEvery > 0 && s.StallFor == 0 {
		s.StallFor = 250 * time.Millisecond
	}
	return s, nil
}

// Listener wraps a net.Listener so every accepted connection injects the
// spec's faults, each with a rand stream derived from (seed, accept
// index).
type Listener struct {
	net.Listener
	spec Spec
	seq  atomic.Int64
}

// Wrap returns ln with fault injection applied to every accepted
// connection. A spec with no faults enabled returns ln unchanged.
func Wrap(ln net.Listener, spec Spec) net.Listener {
	if !spec.Enabled() {
		return ln
	}
	return &Listener{Listener: ln, spec: spec}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, l.spec, l.seq.Add(1)-1), nil
}

// Conn is a net.Conn with seeded fault injection on its Read/Write path.
type Conn struct {
	net.Conn
	spec Spec

	mu          sync.Mutex // guards rng and all scheduling state below
	rng         *rand.Rand
	bytes       int64 // total bytes crossed (reads + writes)
	nextReset   int64 // byte offset of the next injected reset (-1: none)
	nextCorrupt int64 // written-byte offset of the next corruption (-1: none)
	written     int64
	reads       int64 // Read calls issued
	nextStall   int64 // read-call index of the next stall (-1: none)
	reset       bool
}

// WrapConn wraps one connection with the spec's faults. idx
// distinguishes connections sharing a spec (the listener uses its accept
// counter), keeping each connection's fault schedule independent and
// reproducible.
func WrapConn(conn net.Conn, spec Spec, idx int64) *Conn {
	// splitmix-style hash so consecutive indices give unrelated streams.
	h := uint64(spec.Seed) + uint64(idx)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	c := &Conn{Conn: conn, spec: spec, rng: rand.New(rand.NewSource(int64(h)))}
	c.nextReset = c.schedule(spec.ResetEvery)
	c.nextCorrupt = c.schedule(spec.CorruptEvery)
	c.nextStall = c.schedule(spec.StallEvery)
	return c
}

// schedule draws the next injection point a mean of `every` units ahead,
// or -1 when the fault is disabled. Callers hold mu (or the conn is not
// yet shared).
func (c *Conn) schedule(every int64) int64 {
	if every <= 0 {
		return -1
	}
	return 1 + c.rng.Int63n(2*every)
}

// latency sleeps the spec's per-op delay, if any.
func (c *Conn) latency() {
	if c.spec.MaxLatency <= 0 {
		return
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.spec.MaxLatency)))
	c.mu.Unlock()
	time.Sleep(d)
}

// doReset closes the underlying connection abruptly. On TCP, lingering is
// zeroed first so the peer observes RST — the failure mode a crashed or
// power-cut peer produces — rather than an orderly FIN.
func (c *Conn) doReset() error {
	c.mu.Lock()
	already := c.reset
	c.reset = true
	c.mu.Unlock()
	if !already {
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Conn.Close()
	}
	return ErrInjectedReset
}

// Read implements net.Conn, injecting stalls, latency, and resets.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	c.reads++
	stall := c.nextStall >= 0 && c.reads >= c.nextStall
	if stall {
		c.nextStall = c.reads + c.schedule(c.spec.StallEvery)
	}
	resetNow := c.nextReset >= 0 && c.bytes >= c.nextReset
	c.mu.Unlock()

	if resetNow {
		return 0, c.doReset()
	}
	if stall {
		time.Sleep(c.spec.StallFor)
	}
	c.latency()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.bytes += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write implements net.Conn, injecting latency, corruption, partial
// writes, and resets. A reset whose scheduled byte offset falls inside p
// delivers the prefix up to that exact offset before failing, so the peer
// sees truncation at byte (not frame) granularity.
func (c *Conn) Write(p []byte) (int, error) {
	c.latency()
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	// Corruption: flip one bit per scheduled offset inside this write,
	// always on a copy — callers (the wire encoder's scratch, the
	// resilient client's replay ring) must see their buffers unharmed.
	var buf []byte
	for c.nextCorrupt >= 0 && c.nextCorrupt < c.written+int64(len(p)) {
		if buf == nil {
			buf = append([]byte(nil), p...)
		}
		off := c.nextCorrupt - c.written
		buf[off] ^= 1 << uint(c.rng.Intn(8))
		c.nextCorrupt = c.written + off + c.schedule(c.spec.CorruptEvery)
	}
	if buf != nil {
		p = buf
	}
	// Reset inside this write: send the prefix, then cut.
	cut := -1
	if c.nextReset >= 0 && c.bytes+int64(len(p)) > c.nextReset {
		cut = int(c.nextReset - c.bytes)
		if cut < 0 {
			cut = 0
		}
	}
	partial := c.spec.PartialWrites
	var chunk int
	if partial {
		chunk = 1 + c.rng.Intn(512)
	}
	c.mu.Unlock()

	limit := len(p)
	if cut >= 0 {
		limit = cut
	}
	wrote := 0
	for wrote < limit {
		end := limit
		if partial && wrote+chunk < limit {
			end = wrote + chunk
		}
		n, err := c.Conn.Write(p[wrote:end])
		wrote += n
		c.mu.Lock()
		c.written += int64(n)
		c.bytes += int64(n)
		c.mu.Unlock()
		if err != nil {
			return wrote, err
		}
		if partial {
			c.mu.Lock()
			chunk = 1 + c.rng.Intn(512)
			c.mu.Unlock()
		}
	}
	if cut >= 0 {
		return wrote, c.doReset()
	}
	return wrote, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.Conn.Close() }

// CloseWrite half-closes the underlying connection's write side, where it
// has one, so a lingering close through a faulty link stays orderly.
func (c *Conn) CloseWrite() error { return closeWrite(c.Conn) }

// closeWrite half-closes conn if its type supports it (TCP does).
func closeWrite(conn net.Conn) error {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return errors.ErrUnsupported
}
