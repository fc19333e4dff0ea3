package faultnet

import (
	"fmt"
	"net"
	"sync"
)

// ErrGateKilled is returned by Gate.Accept after Kill: the "process"
// behind the gate is gone, so the accept loop must stop.
var ErrGateKilled = fmt.Errorf("faultnet: gate killed")

// Gate wraps a listener so a test can crash the server behind it the way
// SIGKILL would, without spawning a process: Kill closes the listener (new
// dials get connection-refused) and resets every live accepted connection
// (SO_LINGER zeroed on TCP, so peers see RST mid-stream, not an orderly
// FIN). Everything the peer observes — half-written frames, refused
// reconnects — matches a machine losing power.
type Gate struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	killed bool
}

// NewGate wraps ln. Serve from the gate with Accept (or pass the Gate
// itself as the listener: it implements net.Listener).
func NewGate(ln net.Listener) *Gate {
	return &Gate{ln: ln, conns: make(map[net.Conn]struct{})}
}

// Addr implements net.Listener.
func (g *Gate) Addr() net.Addr { return g.ln.Addr() }

// Accept implements net.Listener, tracking each accepted connection so
// Kill can reset it.
func (g *Gate) Accept() (net.Conn, error) {
	conn, err := g.ln.Accept()
	if err != nil {
		g.mu.Lock()
		killed := g.killed
		g.mu.Unlock()
		if killed {
			return nil, ErrGateKilled
		}
		return nil, err
	}
	gc := &gateConn{Conn: conn, gate: g}
	g.mu.Lock()
	if g.killed {
		g.mu.Unlock()
		abort(conn)
		return nil, ErrGateKilled
	}
	g.conns[gc] = struct{}{}
	g.mu.Unlock()
	return gc, nil
}

// Close implements net.Listener: an orderly close of the listener only —
// live connections are left alone (that is a drain, not a crash).
func (g *Gate) Close() error { return g.ln.Close() }

// Kill emulates SIGKILL of the process behind the gate: the listener
// closes (subsequent dials are refused) and every live connection is
// reset. Safe to call more than once.
func (g *Gate) Kill() {
	g.mu.Lock()
	if g.killed {
		g.mu.Unlock()
		return
	}
	g.killed = true
	live := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		live = append(live, c)
	}
	g.conns = make(map[net.Conn]struct{})
	g.mu.Unlock()

	g.ln.Close()
	for _, c := range live {
		if gc, ok := c.(*gateConn); ok {
			abort(gc.Conn)
		} else {
			abort(c)
		}
	}
}

// abort closes conn so a TCP peer sees RST rather than FIN.
func abort(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// gateConn deregisters itself on an orderly Close so Kill only resets
// connections that are actually live.
type gateConn struct {
	net.Conn
	gate *Gate
}

// CloseWrite passes a half-close through the gate.
func (c *gateConn) CloseWrite() error { return closeWrite(c.Conn) }

func (c *gateConn) Close() error {
	c.gate.mu.Lock()
	delete(c.gate.conns, net.Conn(c))
	c.gate.mu.Unlock()
	return c.Conn.Close()
}
