package proto

import (
	"context"
	"errors"
	"net"
	"sync"
)

// ErrClosed is returned by Front.Serve once Shutdown has begun.
var ErrClosed = errors.New("proto: server closed")

// ErrDraining is the cause a forced drain cancels every connection's
// context with.
var ErrDraining = errors.New("server draining")

// Front is a daemon's front door: it accepts connections, runs the
// daemon's handler on each, ends each with the lingering close, and
// drains them on Shutdown. tsserved and tsgate both run one, so they
// accept, drain and close the same way.
type Front struct {
	ln     net.Listener
	handle func(ctx context.Context, conn net.Conn)

	ctx    context.Context         // every connection's context
	cancel context.CancelCauseFunc // the forced drain

	// The live handler count and the drain notification, guarded by mu
	// with closed. A plain counter rather than a sync.WaitGroup: the
	// accept loop's increment must be ordered against Shutdown's wait
	// under the same lock that publishes closed, which a WaitGroup's
	// Add/Wait pair cannot express (a 0→1 Add concurrent with Wait is a
	// race by contract).
	mu      sync.Mutex
	closed  bool
	conns   int
	drained chan struct{}
}

// NewFront serves ln with handle, one goroutine per connection. handle
// gets a context that a forced drain cancels with ErrDraining; the
// cancellation also closes the connection, so a handler blocked reading
// or writing it returns.
func NewFront(ln net.Listener, handle func(ctx context.Context, conn net.Conn)) *Front {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Front{ln: ln, handle: handle, ctx: ctx, cancel: cancel}
}

// Addr returns the listener's address.
func (f *Front) Addr() net.Addr { return f.ln.Addr() }

// Closing reports whether Shutdown has begun.
func (f *Front) Closing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Serve accepts connections until Shutdown, which makes it return
// ErrClosed; any other accept error is returned as is.
func (f *Front) Serve() error {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			if f.Closing() {
				return ErrClosed
			}
			return err
		}
		// Counted under the lock Shutdown reads the count under: every
		// accepted connection is either counted before the drain snapshot
		// (and so awaited) or registers against a shutdown already begun —
		// and is still handled, since the listener delivered it.
		f.mu.Lock()
		f.conns++
		f.mu.Unlock()
		go f.serve(conn)
	}
}

// serve runs one connection's handler, then the lingering close; a
// forced drain closes the connection under the one and cuts the other
// short.
func (f *Front) serve(conn net.Conn) {
	stop := context.AfterFunc(f.ctx, func() { conn.Close() })
	f.handle(f.ctx, conn)
	stop()
	Close(f.ctx, conn)

	f.mu.Lock()
	f.conns--
	if f.conns == 0 && f.drained != nil {
		close(f.drained)
		f.drained = nil
	}
	f.mu.Unlock()
}

// Shutdown stops accepting and waits for every connection's handler and
// lingering close to finish. If ctx expires first, it cancels every
// connection's context with ErrDraining, which closes the connections,
// waits again, and returns ctx.Err(). It may be called more than once.
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	var drained chan struct{}
	if f.conns > 0 {
		if f.drained == nil {
			f.drained = make(chan struct{})
		}
		drained = f.drained
	}
	f.mu.Unlock()
	if !already {
		f.ln.Close()
	}
	if drained == nil {
		return nil
	}
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		f.cancel(ErrDraining)
		<-drained
		return ctx.Err()
	}
}
