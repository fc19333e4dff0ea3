package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startServer runs a server on a loopback port for the duration of the
// test.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// single is the single-shot client policy: one attempt, no retries.
var single = server.RetryPolicy{MaxAttempts: 1}

// dial opens a single-shot session, failing the test if the server
// refuses it.
func dial(t testing.TB, addr string, cpus int, req server.Request) *server.ResilientSession {
	t.Helper()
	rs, err := server.DialResilient(addr, cpus, req, single)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return rs
}

// rejection runs an empty single-shot session and returns the error it
// ends with, whether the server refuses the request at admission or
// once the stream has begun.
func rejection(addr string, cpus int, req server.Request) error {
	rs, err := server.DialResilient(addr, cpus, req, single)
	if err != nil {
		return err
	}
	rs.Finish(trace.Header{CPUs: cpus})
	_, err = rs.Result()
	return err
}

// dialPlain opens a plain-protocol session over a raw socket — request
// line, then the wire stream straight onto the connection, no hello and
// no acks — the exchange tsgate's backend leg speaks.
func dialPlain(t *testing.T, addr string, cpus int, req server.Request) (net.Conn, *wire.Encoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	line, _ := json.Marshal(req)
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatalf("request: %v", err)
	}
	return conn, wire.NewEncoder(conn, cpus)
}

// pfCfg exercises every bounded structure of the prefetch engine, as the
// streaming equivalence sweep does.
var pfCfg = prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}

// TestServerEquivalence is the tentpole's acceptance criterion: a session
// fed over loopback by the simulator must return results identical —
// every ContextResult field (scalars verbatim, per-miss arrays by digest)
// and every prefetch counter — to Runner.Run on the same
// app/seed/target. The single-chip run drives two concurrent sessions
// (off-chip and intra-chip) from one simulation, exactly as Runner.Run
// fans out.
func TestServerEquivalence(t *testing.T) {
	apps := []tempstream.App{tempstream.OLTP, tempstream.Apache}
	if testing.Short() {
		apps = apps[:1]
	}
	srv := startServer(t, server.Config{})
	addr := srv.Addr().String()
	const target = 20000

	for _, app := range apps {
		want, err := tempstream.NewRunner().Run(context.Background(), tempstream.Request{
			App: app, Scale: tempstream.Small, Seed: 1, TargetMisses: target, Prefetch: &pfCfg,
		})
		if err != nil {
			t.Fatalf("%v: Run: %v", app, err)
		}
		req := server.Request{Prefetch: &pfCfg}

		got := make(map[tempstream.Context]*server.SessionResult)

		// Multi-chip off-chip context: one session.
		mcSess := dial(t, addr, workload.MultiChip.CPUCount(), req)
		workload.RunStream(workload.Config{
			App: app, Machine: workload.MultiChip, Scale: workload.Small,
			Seed: 1, TargetMisses: target,
		}, mcSess, nil)
		if got[tempstream.MultiChipCtx], err = mcSess.Result(); err != nil {
			t.Fatalf("%v multi-chip: %v", app, err)
		}

		// Single-chip run: two concurrent sessions fed by one simulation.
		offSess := dial(t, addr, workload.SingleChip.CPUCount(), req)
		intraSess := dial(t, addr, workload.SingleChip.CPUCount(), req)
		workload.RunStream(workload.Config{
			App: app, Machine: workload.SingleChip, Scale: workload.Small,
			Seed: 1, TargetMisses: target,
		}, offSess, intraSess)
		if got[tempstream.SingleChipCtx], err = offSess.Result(); err != nil {
			t.Fatalf("%v single-chip: %v", app, err)
		}
		if got[tempstream.IntraChipCtx], err = intraSess.Result(); err != nil {
			t.Fatalf("%v intra-chip: %v", app, err)
		}

		for _, ctx := range tempstream.Contexts() {
			wantRes := server.ResultOf(want.Context(ctx))
			if !reflect.DeepEqual(got[ctx], wantRes) {
				t.Errorf("%v %v: server result differs\n got: %+v\nwant: %+v", app, ctx, got[ctx], wantRes)
			}
			if got[ctx].Prefetch == nil || *got[ctx].Prefetch != *want.Context(ctx).Prefetch {
				t.Errorf("%v %v: prefetch counters %+v, want %+v",
					app, ctx, got[ctx].Prefetch, want.Context(ctx).Prefetch)
			}
		}
	}
}

// synthMisses builds a deterministic pseudo-stream (block-aligned, per-CPU
// locality) for protocol tests that don't need a simulator.
func synthMisses(n, cpus int, seed int64) []trace.Miss {
	rng := rand.New(rand.NewSource(seed))
	cur := make([]uint64, cpus)
	out := make([]trace.Miss, n)
	for i := range out {
		c := rng.Intn(cpus)
		if rng.Intn(16) == 0 {
			cur[c] = uint64(rng.Intn(1 << 22))
		} else {
			cur[c] += uint64(rng.Intn(8))
		}
		out[i] = trace.Miss{
			Addr:  cur[c] << 6,
			Func:  trace.FuncID(rng.Intn(30)),
			CPU:   uint8(c),
			Class: trace.MissClass(rng.Intn(int(trace.NumMissClasses))),
		}
	}
	return out
}

// feedSession streams misses through one client session and returns the
// server's result.
func feedSession(t *testing.T, addr string, req server.Request, misses []trace.Miss, cpus int) *server.SessionResult {
	t.Helper()
	cs := dial(t, addr, cpus, req)
	for _, m := range misses {
		cs.Append(m)
	}
	cs.Finish(trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: cpus})
	res, err := cs.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

// TestServerSessionMultiplexing runs more concurrent sessions than slots:
// all must complete correctly, and the stats endpoint must at some point
// show the bound respected with sessions queued behind it.
func TestServerSessionMultiplexing(t *testing.T) {
	srv := startServer(t, server.Config{MaxSessions: 2})
	addr := srv.Addr().String()
	misses := synthMisses(30000, 4, 42)
	want := feedSession(t, addr, server.Request{}, misses, 4)

	const n = 6
	results := make([]*server.SessionResult, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			cs, err := server.DialResilient(addr, 4, server.Request{Label: "mux"}, single)
			if err != nil {
				errs[i] = err
				return
			}
			for _, m := range misses {
				cs.Append(m)
			}
			cs.Finish(trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 4})
			results[i], errs[i] = cs.Result()
		}(i)
	}
	sawBound := false
	for finished := 0; finished < n; {
		select {
		case <-done:
			finished++
		case <-time.After(time.Millisecond):
		}
		st := srv.Stats()
		if st.ActiveSessions <= 2 && st.QueuedSessions > 0 {
			sawBound = true
		}
		if st.ActiveSessions > 2 {
			t.Fatalf("active sessions %d exceeds MaxSessions=2", st.ActiveSessions)
		}
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("session %d result differs from serial reference", i)
		}
	}
	if !sawBound {
		t.Logf("note: never observed queued sessions (timing-dependent); bound still enforced")
	}
	st := srv.Stats()
	if st.TotalSessions != n+1 {
		t.Errorf("total sessions %d, want %d", st.TotalSessions, n+1)
	}
	if wantRecords := int64(len(misses)) * (n + 1); st.TotalRecords != wantRecords {
		t.Errorf("total records %d, want %d", st.TotalRecords, wantRecords)
	}
}

// TestServerMalformedStream checks isolation: a corrupt session gets an
// error response, and the server keeps serving clean sessions afterwards.
func TestServerMalformedStream(t *testing.T) {
	srv := startServer(t, server.Config{})
	addr := srv.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte("{}\n"))
	conn.Write([]byte("this is not a wire stream"))
	// Half-close so the server sees EOF and answers.
	conn.(*net.TCPConn).CloseWrite()
	buf := make([]byte, 4096)
	n, _ := conn.Read(buf)
	conn.Close()
	if !bytes.Contains(buf[:n], []byte("error")) {
		t.Errorf("malformed stream response: %q", buf[:n])
	}

	// Bad request line likewise.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn2.Write([]byte("not json\n"))
	conn2.(*net.TCPConn).CloseWrite()
	n, _ = conn2.Read(buf)
	conn2.Close()
	if !bytes.Contains(buf[:n], []byte("error")) {
		t.Errorf("bad request response: %q", buf[:n])
	}

	// The server still works.
	misses := synthMisses(1000, 2, 1)
	res := feedSession(t, addr, server.Request{}, misses, 2)
	if res.Window != len(misses) {
		t.Errorf("post-failure session window %d, want %d", res.Window, len(misses))
	}
	if st := srv.Stats(); st.FailedSessions != 2 {
		t.Errorf("failed sessions %d, want 2", st.FailedSessions)
	}
}

// TestServerWindowClamp checks the memory-bound negotiation: a client
// demanding a huge window is clamped to the server's ceiling.
func TestServerWindowClamp(t *testing.T) {
	srv := startServer(t, server.Config{MaxWindow: 500})
	misses := synthMisses(5000, 2, 7)
	res := feedSession(t, srv.Addr().String(), server.Request{Analysis: core.Options{MaxMisses: 1 << 30}}, misses, 2)
	if res.Window != 500 {
		t.Errorf("window %d, want clamp at 500", res.Window)
	}
	if res.Header.Misses != len(misses) {
		t.Errorf("header misses %d, want %d (stream beyond window still counted)", res.Header.Misses, len(misses))
	}
}

// TestServerRejectsUnboundedPrefetch checks the memory-bound contract:
// the idealized unbounded prefetcher (zero HistoryLen/BufferBlocks) is an
// in-process analysis tool, not something a client may bind to a server
// session.
func TestServerRejectsUnboundedPrefetch(t *testing.T) {
	srv := startServer(t, server.Config{})
	for _, cfg := range []prefetch.Config{
		{},                   // fully idealized
		{HistoryLen: 1000},   // unbounded buffer
		{BufferBlocks: 1000}, // unbounded history
		{HistoryLen: 1 << 30, BufferBlocks: 1000}, // over the ceiling
	} {
		if err := rejection(srv.Addr().String(), 2, server.Request{Prefetch: &cfg}); err == nil || !strings.Contains(err.Error(), "bounded") {
			t.Errorf("prefetch %+v: err = %v, want bounded-config rejection", cfg, err)
		}
	}
	// A properly bounded config still works.
	misses := synthMisses(2000, 2, 3)
	res := feedSession(t, srv.Addr().String(), server.Request{Prefetch: &pfCfg}, misses, 2)
	if res.Prefetch == nil {
		t.Errorf("bounded prefetch config produced no counters")
	}
}

// TestServerRejectsNegativeWindow checks that a nonsense analysis window
// is an error, not a silently empty analysis reported as success.
func TestServerRejectsNegativeWindow(t *testing.T) {
	srv := startServer(t, server.Config{})
	if err := rejection(srv.Addr().String(), 2, server.Request{Analysis: core.Options{MaxMisses: -1}}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative window err = %v, want rejection", err)
	}
}

// TestServerRejectsOversizedPerCPUPrefetch checks that the prefetch
// memory ceiling applies to the per-CPU product: one engine per processor
// must not multiply a session's allowance past the cap.
func TestServerRejectsOversizedPerCPUPrefetch(t *testing.T) {
	srv := startServer(t, server.Config{})
	// Within per-engine bounds, but 16 engines blow the product cap.
	cfg := prefetch.Config{Depth: 8, PerCPU: true,
		HistoryLen: server.MaxPrefetchHistory / 2, BufferBlocks: 64}
	if err := rejection(srv.Addr().String(), 16, server.Request{Prefetch: &cfg}); err == nil || !strings.Contains(err.Error(), "per-cpu") {
		t.Errorf("oversized per-cpu prefetch err = %v, want rejection", err)
	}
	// The same shape with modest bounds works per CPU.
	misses := synthMisses(2000, 4, 11)
	cfg = prefetch.Config{Depth: 8, PerCPU: true, HistoryLen: 4096, BufferBlocks: 256}
	res := feedSession(t, srv.Addr().String(), server.Request{Prefetch: &cfg}, misses, 4)
	if res.Prefetch == nil {
		t.Errorf("bounded per-cpu prefetch produced no counters")
	}
}

// TestServerIdleTimeout checks that a silent peer is dropped instead of
// pinning a handler goroutine (and potentially an analyzer slot) forever.
func TestServerIdleTimeout(t *testing.T) {
	srv := startServer(t, server.Config{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Say nothing. The idle trip must not close the conn out from under
	// the response write: the silent-but-connected client is owed the
	// error JSON naming the idle cause, well before the test timeout.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Errorf("silent connection read failed (%v), want the idle-timeout error response", err)
	} else if !bytes.Contains(buf[:n], []byte("idle timeout")) {
		t.Errorf("silent connection got %q, want an error response naming the idle timeout", buf[:n])
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.FailedSessions == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent session never failed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerQueueTimeout checks the deadlock-avoidance bound: a session
// that cannot get a slot fails with a busy error instead of waiting
// forever behind a producer that will never release one.
func TestServerQueueTimeout(t *testing.T) {
	srv := startServer(t, server.Config{MaxSessions: 1, QueueTimeout: 50 * time.Millisecond})
	addr := srv.Addr().String()

	// Session A takes the only slot and stays open.
	hold := dial(t, addr, 2, server.Request{Label: "hold"})
	defer hold.Close()
	hold.Append(trace.Miss{})
	// Wait until A is admitted so B's timeout race is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("holding session never became active")
		}
		time.Sleep(time.Millisecond)
	}

	if err := rejection(addr, 2, server.Request{Label: "busy"}); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Errorf("queued session err = %v, want busy timeout", err)
	}

	// The holder still completes normally.
	hold.Finish(trace.Header{Misses: 1, CPUs: 2})
	if _, err := hold.Result(); err != nil {
		t.Errorf("holding session: %v", err)
	}
}

// TestServerGracefulDrain starts a session, shuts the server down mid-
// stream with a patient context, and requires the in-flight session to
// complete with a full result while new connections are refused.
func TestServerGracefulDrain(t *testing.T) {
	srv := startServer(t, server.Config{})
	addr := srv.Addr().String()
	misses := synthMisses(20000, 4, 9)
	want := feedSession(t, addr, server.Request{}, misses, 4)

	cs := dial(t, addr, 4, server.Request{Label: "drain"})
	// Stream half, then shut down while the session is live. Wait for
	// the server to have admitted it first: a dialed connection can
	// still be sitting in the kernel's accept backlog, and closing the
	// listener resets backlogged connections rather than draining them.
	for _, m := range misses[:len(misses)/2] {
		cs.Append(m)
	}
	waitFor(t, "drain session to be admitted", func() bool {
		return srv.Stats().ActiveSessions == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// New connections must be refused once the listener is down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatalf("listener still accepting after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}

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

// sessionAllocBytes measures total heap bytes allocated process-wide
// while one loopback session streams n synthetic records into a fixed
// analysis window.
func sessionAllocBytes(t *testing.T, addr string, misses []trace.Miss) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := feedSession(t, addr, server.Request{Analysis: core.Options{MaxMisses: 4000}}, misses, 4)
	runtime.ReadMemStats(&after)
	if res.Window != 4000 {
		t.Fatalf("window %d, want 4000", res.Window)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestServerSessionBoundedMemory mirrors TestStreamingBoundedMemory at
// the wire level: with a fixed analysis window, quadrupling the records a
// session streams must not proportionally grow allocated bytes — the
// extra records flow through the codec's reused frame buffers into a full
// analyzer window and vanish.
func TestServerSessionBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping memory-growth sweep in short mode")
	}
	srv := startServer(t, server.Config{})
	addr := srv.Addr().String()
	base6k := synthMisses(6000, 4, 5)
	base24k := synthMisses(4*6000, 4, 5)
	sessionAllocBytes(t, addr, base6k) // warm pools, buffers, TCP state
	base := sessionAllocBytes(t, addr, base6k)
	big := sessionAllocBytes(t, addr, base24k)
	t.Logf("allocated bytes: base(6k)=%d big(24k)=%d ratio=%.2f", base, big, float64(big)/float64(base))
	if big > 2*base {
		t.Errorf("session allocations grew with stream length: %d -> %d bytes (>2x) for a 4x stream", base, big)
	}
}
