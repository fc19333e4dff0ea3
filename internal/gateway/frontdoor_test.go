package gateway_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// frontDoor is one daemon under a front-door test: an in-process tsserved
// or an in-process tsgate in front of one, with what the tests read of
// it. backend is the tsserved that analyzes the sessions (the daemon
// itself, or the gateway's one backend).
type frontDoor struct {
	name     string
	addr     string
	shutdown func(context.Context) error
	active   func() int   // sessions holding an analyzer slot or a backend
	failed   func() int64 // sessions counted as failed
	backend  *server.Server
	log      *failLog // the daemon's own log
}

// failLog is a slog handler that keeps the code of every "session
// failed" record a daemon logs.
type failLog struct {
	mu    sync.Mutex
	codes []string
}

func (l *failLog) Enabled(context.Context, slog.Level) bool { return true }

func (l *failLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "session failed" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "code" {
			l.mu.Lock()
			l.codes = append(l.codes, a.Value.String())
			l.mu.Unlock()
		}
		return true
	})
	return nil
}

func (l *failLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *failLog) WithGroup(string) slog.Handler      { return l }

// failCodes returns the codes of the failed sessions logged so far.
func (l *failLog) failCodes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.codes...)
}

// startFrontDoors starts a fresh tsserved and a fresh tsgate (with its
// own backend), so a test can shut each down.
func startFrontDoors(t *testing.T) []frontDoor {
	t.Helper()
	srvLog, gwLog := &failLog{}, &failLog{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.NewServer(ln, server.Config{Name: "solo", ResumeGrace: 5 * time.Second, Logger: slog.New(srvLog)})
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	backend, _ := startBackend(t, "b1")
	cfg := testConfig([]string{backend.Addr().String()})
	cfg.Logger = slog.New(gwLog)
	gw := startGateway(t, cfg)
	waitHealthy(t, gw, 1)
	return []frontDoor{
		{
			name: "tsserved", addr: srv.Addr().String(), shutdown: srv.Shutdown,
			active:  func() int { return srv.Stats().ActiveSessions },
			failed:  func() int64 { return srv.Stats().FailedSessions },
			backend: srv,
			log:     srvLog,
		},
		{
			name: "tsgate", addr: gw.Addr().String(), shutdown: gw.Shutdown,
			active:  func() int { return gw.Stats().ActiveSessions },
			failed:  func() int64 { return gw.Stats().FailedSessions },
			backend: backend,
			log:     gwLog,
		},
	}
}

// TestNegotiationBothDaemons pins request negotiation at both front
// doors: each failure gets the same code and the same error text from
// tsserved and tsgate.
func TestNegotiationBothDaemons(t *testing.T) {
	cases := []struct {
		name   string
		line   string // sent, then the client half-closes
		code   server.ErrCode
		prefix string // of the error text
	}{
		{"too large", strings.Repeat("x", proto.MaxLine+1) + "\n", server.CodeTooLarge, "request exceeds 65536 bytes"},
		{"malformed JSON", "{\"label\": oltp}\n", server.CodeBadRequest, "parsing request: "},
		{"cut off", "{\"label\": \"oltp\"", server.CodeBadRequest, "reading request: EOF"},
	}
	doors := startFrontDoors(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			texts := map[string]string{}
			for _, d := range doors {
				conn, err := net.Dial("tcp", d.addr)
				if err != nil {
					t.Fatalf("%s: dial: %v", d.name, err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := io.WriteString(conn, tc.line); err != nil {
					t.Fatalf("%s: writing request: %v", d.name, err)
				}
				conn.(*net.TCPConn).CloseWrite()
				line, err := bufio.NewReader(conn).ReadBytes('\n')
				if err != nil {
					t.Fatalf("%s: reading response: %v", d.name, err)
				}
				var resp server.Response
				if err := json.Unmarshal(line, &resp); err != nil {
					t.Fatalf("%s: response %q: %v", d.name, line, err)
				}
				if resp.Code != tc.code || !strings.HasPrefix(resp.Error, tc.prefix) {
					t.Errorf("%s: code %q error %q, want code %q and an error starting %q", d.name, resp.Code, resp.Error, tc.code, tc.prefix)
				}
				texts[d.name] = resp.Error
			}
			if texts["tsserved"] != texts["tsgate"] {
				t.Errorf("error text differs: tsserved %q, tsgate %q", texts["tsserved"], texts["tsgate"])
			}
		})
	}
}

// TestForcedDrainBothDaemons: Shutdown with an expired context while a
// client sits idle mid-stream. At either daemon the client's connection
// ends within a second, and Shutdown returns only once the session's
// handler has: the session is counted failed, logged with code
// draining, and holds no slot or backend.
func TestForcedDrainBothDaemons(t *testing.T) {
	for _, d := range startFrontDoors(t) {
		t.Run(d.name, func(t *testing.T) {
			conn, enc := dialRaw(t, d.addr, 4, server.Request{Label: "forced"})
			defer conn.Close()
			for _, m := range synthMisses(5000, 4, 3) { // one data frame goes out
				enc.Append(m)
			}
			waitFor(t, "the session to be mid-stream", func() bool {
				for _, row := range d.backend.Stats().Sessions {
					if row.Label == "forced" && row.Records > 0 {
						return true
					}
				}
				return false
			})

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			begin := time.Now()
			shutdown := make(chan error, 1)
			go func() { shutdown <- d.shutdown(ctx) }()

			conn.SetReadDeadline(time.Now().Add(time.Second))
			_, err := io.ReadAll(conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Errorf("client connection still open 1s after the forced drain")
			}
			select {
			case err := <-shutdown:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("Shutdown = %v, want context.Canceled", err)
				}
			case <-time.After(time.Second):
				t.Fatalf("Shutdown still waiting 1s after the forced drain")
			}
			t.Logf("forced drain took %v", time.Since(begin))
			if n := d.active(); n != 0 {
				t.Errorf("Shutdown returned with %d sessions still active", n)
			}
			if n := d.failed(); n != 1 {
				t.Errorf("Shutdown returned with %d sessions counted failed, want 1", n)
			}
			if codes := d.log.failCodes(); !reflect.DeepEqual(codes, []string{string(server.CodeDraining)}) {
				t.Errorf("failed sessions logged with codes %q, want one %q", codes, server.CodeDraining)
			}
		})
	}
}

// TestGatewayGracefulDrain is TestServerGracefulDrain through tsgate: a
// session mid-stream when Shutdown begins completes with the full
// result, while new connections are refused.
func TestGatewayGracefulDrain(t *testing.T) {
	addrs, _ := startFleet(t, 1)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 1)
	addr := gw.Addr().String()
	misses := synthMisses(20000, 4, 9)
	want := feedSession(t, addr, server.Request{}, misses, 4)

	cs, err := server.DialResilient(addr, 4, server.Request{Label: "drain"}, single)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Stream half, then shut down while the session is live; it must have
	// reached a backend first, so the gateway has accepted it.
	for _, m := range misses[:len(misses)/2] {
		cs.Append(m)
	}
	waitFor(t, "the drain session to reach its backend", func() bool {
		return gw.Stats().ActiveSessions == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- gw.Shutdown(ctx) }()

	waitFor(t, "the listener to refuse connections", func() bool {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})

	for _, m := range misses[len(misses)/2:] {
		cs.Append(m)
	}
	cs.Finish(trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 4})
	res, err := cs.Result()
	if err != nil {
		t.Fatalf("in-flight session failed during drain: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("drained session result differs from reference")
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestGatewayForcedDrainAwaitingResponse: a session has sent its trailer
// to a backend that never answers, so the gateway waits on the backend,
// not the client. A forced drain closes the backend leg too, and
// Shutdown returns within a second.
func TestGatewayForcedDrainAwaitingResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	trailed := make(chan struct{}, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := proto.ReadLine(br, proto.MaxLine); err != nil {
					return
				}
				if _, err := wire.NewDecoder(br).Run(trace.Discard{}); err == nil {
					trailed <- struct{}{}
				}
				io.Copy(io.Discard, br) // never answer
			}()
		}
	}()
	cfg := testConfig([]string{ln.Addr().String()})
	cfg.Probe = func(string, time.Duration) (*server.Stats, error) { return &server.Stats{}, nil }
	gw := startGateway(t, cfg)
	waitHealthy(t, gw, 1)

	conn, enc := dialRaw(t, gw.Addr().String(), 4, server.Request{Label: "mute"})
	defer conn.Close()
	misses := synthMisses(5000, 4, 5)
	for _, m := range misses {
		enc.Append(m)
	}
	enc.Finish(trace.Header{Misses: len(misses), CPUs: 4})
	if err := enc.Close(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	select {
	case <-trailed:
	case <-time.After(10 * time.Second):
		t.Fatalf("the backend never received the trailer")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- gw.Shutdown(ctx) }()
	select {
	case <-shutdown:
	case <-time.After(time.Second):
		t.Fatalf("Shutdown still waiting 1s after the forced drain")
	}
	if st := gw.Stats(); st.ActiveSessions != 0 || st.FailedSessions != 1 {
		t.Errorf("after the forced drain: %d active, %d failed; want 0 and 1", st.ActiveSessions, st.FailedSessions)
	}
}
