package proto

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startFront serves a loopback listener with handle and returns the
// front door and the channel Serve's result arrives on.
func startFront(t *testing.T, handle func(context.Context, net.Conn)) (*Front, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFront(ln, handle)
	served := make(chan error, 1)
	go func() { served <- f.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		f.Shutdown(ctx)
	})
	return f, served
}

// dialFront connects to f and waits until its handler has started.
func dialFront(t *testing.T, f *Front, started <-chan struct{}) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never started")
	}
	return conn
}

// TestFrontGracefulDrain: Shutdown closes the listener, waits for a live
// handler however long it takes, and Serve reports ErrClosed.
func TestFrontGracefulDrain(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	f, served := startFront(t, func(ctx context.Context, conn net.Conn) {
		close(started)
		<-release
		NewLineWriter(conn, time.Second).WriteRaw([]byte("done\n"))
		returned.Store(true)
	})
	conn := dialFront(t, f, started)

	shutdown := make(chan error, 1)
	go func() { shutdown <- f.Shutdown(context.Background()) }()
	if err := <-served; !errors.Is(err, ErrClosed) {
		t.Errorf("Serve = %v, want ErrClosed", err)
	}
	if c, err := net.Dial("tcp", f.Addr().String()); err == nil {
		c.Close()
		t.Errorf("listener still accepting after Shutdown")
	}
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned %v with a handler still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || line != "done\n" {
		t.Errorf("client read %q, %v; want the handler's line", line, err)
	}
	conn.Close() // ends the lingering close
	if err := <-shutdown; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	if !returned.Load() {
		t.Errorf("Shutdown returned before the handler did")
	}
}

// TestFrontForcedDrain: when Shutdown's context expires, every handler's
// context is cancelled with ErrDraining and its connection closed, so a
// handler blocked reading returns; Shutdown waits for it and returns
// ctx.Err(), and the client's connection ends.
func TestFrontForcedDrain(t *testing.T) {
	started := make(chan struct{})
	var readErr, cause atomic.Value
	var returned atomic.Bool
	f, _ := startFront(t, func(ctx context.Context, conn net.Conn) {
		close(started)
		_, err := ReadLine(bufio.NewReader(conn), MaxLine) // the client never sends
		readErr.Store(err)
		cause.Store(context.Cause(ctx))
		returned.Store(true)
	})
	conn := dialFront(t, f, started)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	begin := time.Now()
	if err := f.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("forced Shutdown = %v, want context.Canceled", err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Errorf("forced Shutdown took %v", d)
	}
	if !returned.Load() {
		t.Fatalf("Shutdown returned before the handler did")
	}
	if err, _ := readErr.Load().(error); !errors.Is(err, net.ErrClosed) {
		t.Errorf("handler's read ended with %v, want the drain's close", err)
	}
	if c, _ := cause.Load().(error); !errors.Is(c, ErrDraining) {
		t.Errorf("handler's context cause %v, want ErrDraining", c)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("client read after the forced drain: %v, want EOF", err)
	}
}

// TestFrontShutdownIdle: with no connection live, Shutdown returns at
// once, even with an expired context, and may be called again.
func TestFrontShutdownIdle(t *testing.T) {
	f, served := startFront(t, func(context.Context, net.Conn) {})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 2 {
		if err := f.Shutdown(ctx); err != nil {
			t.Errorf("idle Shutdown = %v, want nil", err)
		}
	}
	if err := <-served; !errors.Is(err, ErrClosed) {
		t.Errorf("Serve = %v, want ErrClosed", err)
	}
	if !f.Closing() {
		t.Errorf("Closing() = false after Shutdown")
	}
}
