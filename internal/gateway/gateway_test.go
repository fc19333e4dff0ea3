package gateway_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

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

// single is the single-shot client policy: one attempt, no retries.
var single = server.RetryPolicy{MaxAttempts: 1}

// feedSession streams misses through one single-shot client session and
// returns the result.
func feedSession(t *testing.T, addr string, req server.Request, misses []trace.Miss, cpus int) *server.SessionResult {
	t.Helper()
	cs, err := server.DialResilient(addr, cpus, req, single)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
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

// dialRaw opens a session over a raw socket: the request line, then the
// wire stream straight onto the connection. Nothing the peer sends back
// is read until the caller reads it.
func dialRaw(t *testing.T, addr string, cpus int, req server.Request) (net.Conn, *wire.Encoder) {
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

// feedPlain streams misses through a plain-protocol session over a raw
// socket — request line, wire stream, response line; no hello, no acks
// — and returns the result.
func feedPlain(t *testing.T, addr string, req server.Request, misses []trace.Miss, cpus int) *server.SessionResult {
	t.Helper()
	conn, enc := dialRaw(t, addr, cpus, req)
	defer conn.Close()
	for _, m := range misses {
		enc.Append(m)
	}
	enc.Finish(trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: cpus})
	if err := enc.Close(); err != nil {
		t.Fatalf("plain stream: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("plain response: %v", err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil || resp.Result == nil {
		t.Fatalf("plain response %q: %v", line, err)
	}
	return resp.Result
}

// startBackend runs one in-process tsserved behind a faultnet.Gate, so
// tests can SIGKILL it (RST every connection, refuse new dials) or drain
// it on demand.
func startBackend(t *testing.T, name string) (*server.Server, *faultnet.Gate) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	gate := faultnet.NewGate(ln)
	srv := server.NewServer(gate, server.Config{Name: name, ResumeGrace: 5 * time.Second})
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, gate
}

// startFleet starts n gated backends and returns their addresses plus
// the gates keyed by address.
func startFleet(t *testing.T, n int) ([]string, map[string]*faultnet.Gate) {
	t.Helper()
	addrs := make([]string, n)
	gates := make(map[string]*faultnet.Gate, n)
	for i := 0; i < n; i++ {
		srv, gate := startBackend(t, fmt.Sprintf("b%d", i+1))
		addrs[i] = srv.Addr().String()
		gates[addrs[i]] = gate
	}
	return addrs, gates
}

// testConfig shrinks the gateway's health-check cadence so circuits open
// and close in milliseconds.
func testConfig(backends []string) gateway.Config {
	return gateway.Config{
		Backends:      backends,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		BreakerBase:   25 * time.Millisecond,
		BreakerMax:    200 * time.Millisecond,
		ResumeGrace:   5 * time.Second,
		RetryHint:     20 * time.Millisecond,
		DialTimeout:   2 * time.Second,
	}
}

func startGateway(t *testing.T, cfg gateway.Config) *gateway.Gateway {
	t.Helper()
	gw, err := gateway.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("gateway.Listen: %v", err)
	}
	go gw.Serve()
	t.Cleanup(func() { gw.Close() })
	return gw
}

func waitHealthy(t *testing.T, gw *gateway.Gateway, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d healthy backends", n), func() bool {
		return gw.Stats().HealthyBackends >= n
	})
}

// TestGatewayFleetEquivalence is the tentpole's acceptance criterion:
// kill a backend mid-stream and the session's result must be
// byte-identical to a fault-free single-node run — the gateway replays
// the session's frames on a survivor and the client never notices.
func TestGatewayFleetEquivalence(t *testing.T) {
	misses := synthMisses(30000, 4, 42)
	req := server.Request{Label: "fleet", Analysis: core.Options{MaxMisses: 8000}}
	hdr := trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 4}

	// Fault-free single-node baseline.
	solo, _ := startBackend(t, "solo")
	want := feedSession(t, solo.Addr().String(), req, misses, 4)

	addrs, gates := startFleet(t, 3)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 3)

	// A plain (non-resumable) session relays through unchanged.
	if got := feedPlain(t, gw.Addr().String(), req, misses, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("plain session through gateway differs from single-node run\n got: %+v\nwant: %+v", got, want)
	}

	// Now the kill: stream half, SIGKILL the backend holding the session,
	// stream the rest.
	rs, err := server.DialResilient(gw.Addr().String(), 4, req, server.RetryPolicy{Seed: 7})
	if err != nil {
		t.Fatalf("DialResilient via gateway: %v", err)
	}
	var victim string
	for i, m := range misses {
		rs.Append(m)
		if i == len(misses)/2 {
			victim = killActiveBackend(t, gw, gates)
		}
	}
	rs.Finish(hdr)
	got, err := rs.Result()
	if err != nil {
		t.Fatalf("session failed across backend kill: %v (client stats %+v)", err, rs.Stats())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result across backend kill differs from fault-free single-node run\n got: %+v\nwant: %+v", got, want)
	}
	// The kill must have been invisible to the client: no reconnects, no
	// resumes — failover happened entirely behind the gateway.
	if cst := rs.Stats(); cst.Transport+cst.Resumes+cst.Restarts != 0 {
		t.Errorf("backend kill leaked to the client: %+v", cst)
	}

	st := gw.Stats()
	if st.ReroutedSessions == 0 {
		t.Error("no session was rerouted")
	}
	if st.FailedSessions != 0 {
		t.Errorf("FailedSessions = %d, want 0", st.FailedSessions)
	}
	found := false
	for _, b := range st.Backends {
		if b.Addr == victim {
			found = true
			if b.Circuit == gateway.CircuitClosed {
				t.Errorf("victim %s circuit still closed after kill", victim)
			}
		}
	}
	if !found {
		t.Errorf("victim %s missing from fleet stats", victim)
	}
}

// killActiveBackend waits until exactly one backend holds a session,
// kills it, and returns its address.
func killActiveBackend(t *testing.T, gw *gateway.Gateway, gates map[string]*faultnet.Gate) string {
	t.Helper()
	var victim string
	waitFor(t, "a backend to hold the session", func() bool {
		for _, b := range gw.Stats().Backends {
			if b.ActiveSessions > 0 {
				victim = b.Addr
				return true
			}
		}
		return false
	})
	gates[victim].Kill()
	return victim
}

// chaosPolicy wraps every client dial with the given fault spec, as the
// server's resilient equivalence test does.
func chaosPolicy(spec faultnet.Spec, connIdx *atomic.Int64, seed int64) server.RetryPolicy {
	return server.RetryPolicy{
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		MaxAttempts: 25,
		RingFrames:  2,
		Seed:        seed,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return faultnet.WrapConn(c, spec, connIdx.Add(1)), nil
		},
	}
}

// TestGatewayResilientEquivalence extends the resilient-client chaos
// equivalence through the gateway: the client leg suffers seeded resets,
// corruption, and fragmented writes, and recovery runs against the
// gateway's own park/resume state while the backend leg stays clean.
func TestGatewayResilientEquivalence(t *testing.T) {
	misses := synthMisses(30000, 4, 42)
	req := server.Request{Label: "chaos", Analysis: core.Options{MaxMisses: 8000}}
	hdr := trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 4}

	solo, _ := startBackend(t, "solo")
	want := feedSession(t, solo.Addr().String(), req, misses, 4)

	addrs, _ := startFleet(t, 2)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 2)

	spec := faultnet.Spec{Seed: 99, ResetEvery: 40_000, CorruptEvery: 60_000, PartialWrites: true}
	var connIdx atomic.Int64
	var total server.RetryStats
	for i := 0; i < 2; i++ {
		rs, err := server.DialResilient(gw.Addr().String(), 4, req, chaosPolicy(spec, &connIdx, int64(i+1)))
		if err != nil {
			t.Fatalf("session %d: dial under chaos: %v", i, err)
		}
		for _, m := range misses {
			rs.Append(m)
		}
		rs.Finish(hdr)
		got, err := rs.Result()
		if err != nil {
			t.Fatalf("session %d failed under chaos: %v (stats %+v)", i, err, rs.Stats())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("session %d: chaos result differs from fault-free run\n got: %+v\nwant: %+v", i, got, want)
		}
		total.Add(rs.Stats())
	}
	if total.Resumes+total.Restarts == 0 {
		t.Errorf("no session ever resumed or restarted — fault injection exercised nothing: %+v", total)
	}
}

// TestGatewayPassesThroughBadRequest: a request the backend rejects
// reaches the client as the backend's own bad_request line, even though
// the client is still streaming when the rejection arrives — not as a
// reroute, a shed, or a transport error — and a rejection is not a
// backend failure, so no circuit opens.
func TestGatewayPassesThroughBadRequest(t *testing.T) {
	addrs, _ := startFleet(t, 2)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 2)

	misses := synthMisses(20000, 2, 3)
	rs, err := server.DialResilient(gw.Addr().String(), 2,
		server.Request{Label: "negative", Analysis: core.Options{MaxMisses: -1}}, single)
	if err == nil {
		for _, m := range misses {
			rs.Append(m)
		}
		rs.Finish(trace.Header{Misses: len(misses), Instructions: 1, CPUs: 2})
		_, err = rs.Result()
	}
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want the backend's negative-window rejection", err)
	}
	st := gw.Stats()
	if st.ReroutedSessions != 0 {
		t.Errorf("ReroutedSessions = %d, want 0 (a rejection is not a backend failure)", st.ReroutedSessions)
	}
	for _, b := range st.Backends {
		if b.Circuit != gateway.CircuitClosed {
			t.Errorf("backend %s circuit %v after a rejection, want closed", b.Addr, b.Circuit)
		}
	}
}

// TestGatewayRingOverflow: a session that outgrows its replay ring stops
// retaining frames, and when its backend then dies it fails with a
// stream error instead of replaying an incomplete stream elsewhere.
func TestGatewayRingOverflow(t *testing.T) {
	srvs := make(map[string]*server.Server)
	gates := make(map[string]*faultnet.Gate)
	var addrs []string
	for _, name := range []string{"b1", "b2"} {
		srv, gate := startBackend(t, name)
		addr := srv.Addr().String()
		srvs[addr], gates[addr] = srv, gate
		addrs = append(addrs, addr)
	}
	cfg := testConfig(addrs)
	cfg.RingFrames = 2
	gw := startGateway(t, cfg)
	waitHealthy(t, gw, 2)

	const frames = 5
	misses := synthMisses(frames*4096, 4, 9)
	conn, enc := dialRaw(t, gw.Addr().String(), 4, server.Request{Label: "overflow"})
	defer conn.Close()
	for _, m := range misses {
		enc.Append(m)
	}
	var holder string
	waitFor(t, "a backend to decode every frame", func() bool {
		for addr, srv := range srvs {
			for _, row := range srv.Stats().Sessions {
				if row.Label == "overflow" && row.Records == int64(len(misses)) {
					holder = addr
					return true
				}
			}
		}
		return false
	})
	if v := scrapeGateway(t, gw)["tsgate_replay_ring_frames"].Samples[0].Value; v != 0 {
		t.Errorf("tsgate_replay_ring_frames = %v after overflow, want 0", v)
	}
	gates[holder].Kill()
	enc.Finish(trace.Header{Misses: len(misses), Instructions: 1, CPUs: 4})
	enc.Close()
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	var resp server.Response
	if err != nil || json.Unmarshal(line, &resp) != nil {
		t.Fatalf("response %q: %v", line, err)
	}
	if resp.Code != server.CodeStream || !strings.Contains(resp.Error, "replay ring") {
		t.Errorf("response %+v, want a stream error naming the replay ring", resp)
	}
	if st := gw.Stats(); st.ReroutedSessions != 0 {
		t.Errorf("ReroutedSessions = %d, want 0 (nothing to replay)", st.ReroutedSessions)
	}
}

// TestGatewayShedsWhenFleetDown: with every circuit open, arrivals get
// the typed busy code and a retry hint, not a hang or a silent close.
func TestGatewayShedsWhenFleetDown(t *testing.T) {
	addrs, gates := startFleet(t, 2)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 2)
	for _, gate := range gates {
		gate.Kill()
	}
	waitFor(t, "both circuits to open", func() bool {
		return gw.Stats().HealthyBackends == 0
	})

	conn, err := net.DialTimeout("tcp", gw.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "{}\n"); err != nil {
		t.Fatalf("write request: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("parse response %q: %v", line, err)
	}
	if resp.Code != server.CodeBusy {
		t.Errorf("code = %q, want %q (response %+v)", resp.Code, server.CodeBusy, resp)
	}
	if resp.RetryAfterMS <= 0 {
		t.Errorf("RetryAfterMS = %d, want > 0", resp.RetryAfterMS)
	}
}

// TestGatewayMembership: live edits — added backends warm in behind a
// probe, removed ones leave the membership, and routing follows.
func TestGatewayMembership(t *testing.T) {
	addrs, _ := startFleet(t, 2)
	gw := startGateway(t, testConfig(addrs[:1]))
	waitHealthy(t, gw, 1)

	added, removed := gw.SetBackends(addrs)
	if len(added) != 1 || len(removed) != 0 {
		t.Fatalf("SetBackends diff: added=%v removed=%v", added, removed)
	}
	waitHealthy(t, gw, 2)

	// Remove the original; with no sessions attached it leaves at once.
	_, removed = gw.SetBackends(addrs[1:])
	if len(removed) != 1 || removed[0] != addrs[0] {
		t.Fatalf("SetBackends removed=%v, want [%s]", removed, addrs[0])
	}
	waitFor(t, "membership to shrink", func() bool {
		return len(gw.BackendAddrs()) == 1
	})

	// Sessions still route, now exclusively to the survivor.
	misses := synthMisses(5000, 2, 7)
	feedSession(t, gw.Addr().String(), server.Request{Label: "after-edit"}, misses, 2)
	for _, b := range gw.Stats().Backends {
		if b.Addr == addrs[0] {
			t.Errorf("removed backend %s still in fleet stats", addrs[0])
		}
	}
}

// TestGatewayAffinityAndSpread: the consistent hash keeps a label on its
// backend across sessions, while distinct labels use more than one
// backend.
func TestGatewayAffinityAndSpread(t *testing.T) {
	addrs, _ := startFleet(t, 3)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 3)

	misses := synthMisses(2000, 2, 7)
	routed := func() map[string]int64 {
		out := make(map[string]int64)
		for _, b := range gw.Stats().Backends {
			out[b.Addr] = b.RoutedSessions
		}
		return out
	}

	before := routed()
	feedSession(t, gw.Addr().String(), server.Request{Label: "sticky"}, misses, 2)
	feedSession(t, gw.Addr().String(), server.Request{Label: "sticky"}, misses, 2)
	after := routed()
	moved := 0
	for addr, n := range after {
		if d := n - before[addr]; d > 0 {
			moved++
			if d != 2 {
				t.Errorf("label routed %d sessions to %s, want both on one backend", d, addr)
			}
		}
	}
	if moved != 1 {
		t.Errorf("label hit %d backends, want 1", moved)
	}

	// Enough labels that all of them hashing onto one of three backends
	// is out of reach: the ring depends on the backends' ephemeral ports,
	// and with 8 labels that happened about once in a thousand runs.
	const labels = 32
	before = after
	for i := 0; i < labels; i++ {
		feedSession(t, gw.Addr().String(), server.Request{Label: fmt.Sprintf("spread-%d", i)}, misses, 2)
	}
	after = routed()
	hit := 0
	for addr, n := range after {
		if n > before[addr] {
			hit++
		}
	}
	if hit < 2 {
		t.Errorf("%d distinct labels hit %d backends, want ≥ 2", labels, hit)
	}
}

// TestGatewayProbeAggregate: a probe aimed at the gateway's ingest port
// answers with the fleet aggregated into one server.Stats, so upstream
// tooling cannot tell it from a single big tsserved.
func TestGatewayProbeAggregate(t *testing.T) {
	addrs, _ := startFleet(t, 2)
	cfg := testConfig(addrs)
	cfg.Name = "gw-under-test"
	gw := startGateway(t, cfg)
	waitHealthy(t, gw, 2)

	st, err := server.Probe(gw.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("Probe(gateway): %v", err)
	}
	if st.Name != "gw-under-test" {
		t.Errorf("Name = %q, want gw-under-test", st.Name)
	}
	if st.MaxSessions <= 0 {
		t.Errorf("MaxSessions = %d, want the fleet's summed capacity", st.MaxSessions)
	}
	if st.ActiveSessions != 0 {
		t.Errorf("ActiveSessions = %d, want 0 (probes take no slot)", st.ActiveSessions)
	}
}
