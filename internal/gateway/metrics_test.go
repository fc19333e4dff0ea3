package gateway_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// scrapeGateway renders the gateway's registry and parses it back with
// the strict exposition parser, failing the test on any format or
// naming violation.
func scrapeGateway(t *testing.T, gw interface{ Registry() *obs.Registry }) map[string]*obs.Family {
	t.Helper()
	var buf bytes.Buffer
	if err := gw.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("rendering exposition: %v", err)
	}
	fams, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	if viol := obs.LintNames(fams); len(viol) != 0 {
		t.Fatalf("naming violations: %v", viol)
	}
	byName := make(map[string]*obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// TestGatewayMetrics drives a session through a two-backend fleet and
// checks the tsgate_* families: valid exposition, required series
// present, per-backend labels covering the membership, and the replay
// ring gauge settling back to zero once the session's frames are
// released.
func TestGatewayMetrics(t *testing.T) {
	addrs, _ := startFleet(t, 2)
	gw := startGateway(t, testConfig(addrs))
	waitHealthy(t, gw, 2)

	misses := synthMisses(4000, 4, 11)
	feedSession(t, gw.Addr().String(), server.Request{Label: "metrics-probe"}, misses, 4)

	fams := scrapeGateway(t, gw)
	for _, name := range []string{
		"tsgate_sessions_total",
		"tsgate_sessions_completed_total",
		"tsgate_sessions_failed_total",
		"tsgate_sessions_shed_total",
		"tsgate_sessions_rerouted_total",
		"tsgate_sessions_parked",
		"tsgate_backends",
		"tsgate_healthy_backends",
		"tsgate_replay_ring_frames",
		"tsgate_uptime_seconds",
		"tsgate_backend_circuit_state",
		"tsgate_backend_active_sessions",
		"tsgate_backend_routed_total",
		"tsgate_probe_seconds",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("required family %s missing from scrape", name)
		}
	}

	value := func(name string) float64 {
		f := fams[name]
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("%s: want exactly one sample, have %+v", name, f)
		}
		return f.Samples[0].Value
	}
	if v := value("tsgate_sessions_total"); v < 1 {
		t.Errorf("tsgate_sessions_total = %v, want >= 1", v)
	}
	if v := value("tsgate_sessions_completed_total"); v < 1 {
		t.Errorf("tsgate_sessions_completed_total = %v, want >= 1", v)
	}
	if v := value("tsgate_healthy_backends"); v != 2 {
		t.Errorf("tsgate_healthy_backends = %v, want 2", v)
	}
	// The session is over: its replay ring must have been released.
	if v := value("tsgate_replay_ring_frames"); v != 0 {
		t.Errorf("tsgate_replay_ring_frames = %v after session end, want 0", v)
	}

	// Per-backend families carry one series per backend, labeled by
	// address, and a healthy fleet reads circuit_state 0 everywhere.
	cs := fams["tsgate_backend_circuit_state"]
	if len(cs.Samples) != 2 {
		t.Fatalf("tsgate_backend_circuit_state has %d series, want 2", len(cs.Samples))
	}
	seen := map[string]bool{}
	for _, s := range cs.Samples {
		seen[s.Labels["backend"]] = true
		if s.Value != 0 {
			t.Errorf("circuit_state{backend=%q} = %v, want 0 (closed)", s.Labels["backend"], s.Value)
		}
	}
	for _, a := range addrs {
		if !seen[a] {
			t.Errorf("no circuit_state series for backend %s", a)
		}
	}

	// The probers have been running: every backend has probe latency
	// observations (the _count series per backend).
	probe := fams["tsgate_probe_seconds"]
	counts := map[string]float64{}
	for _, s := range probe.Samples {
		if s.Name == "tsgate_probe_seconds_count" {
			counts[s.Labels["backend"]] = s.Value
		}
	}
	for _, a := range addrs {
		if counts[a] < 1 {
			t.Errorf("tsgate_probe_seconds_count{backend=%q} = %v, want >= 1", a, counts[a])
		}
	}

	// A second scrape must be monotone on the counters (no resets).
	fams2 := scrapeGateway(t, gw)
	if v := fams2["tsgate_sessions_total"].Samples[0].Value; v < value("tsgate_sessions_total") {
		t.Errorf("tsgate_sessions_total went backwards: %v", v)
	}
}

// TestGatewayRingGaugeTracksRetention checks the replay ring gauge
// against a session parked mid-stream: parked frames stay counted, and
// release on expiry returns the gauge to zero.
func TestGatewayRingGaugeTracksRetention(t *testing.T) {
	addrs, _ := startFleet(t, 1)
	cfg := testConfig(addrs)
	cfg.ResumeGrace = 200 * time.Millisecond
	gw := startGateway(t, cfg)
	waitHealthy(t, gw, 1)

	// Resumable session that streams some frames then drops the client
	// link without a trailer: the gateway parks it, ring intact. The raw
	// client never reads the gateway's hello/ack lines — they sit in
	// socket buffers, which is fine for a stream this short.
	conn, enc := dialRaw(t, gw.Addr().String(), 4,
		server.Request{Label: "ring-gauge", Resume: &server.ResumeRequest{}})
	for _, m := range synthMisses(20000, 4, 7) {
		enc.Append(m)
	}
	conn.Close()

	waitFor(t, "session to park", func() bool { return gw.Stats().ParkedSessions == 1 })
	fams := scrapeGateway(t, gw)
	if v := fams["tsgate_replay_ring_frames"].Samples[0].Value; v < 1 {
		t.Errorf("tsgate_replay_ring_frames = %v with a parked session, want >= 1", v)
	}

	waitFor(t, "park to expire", func() bool { return gw.Stats().ExpiredSessions == 1 })
	fams = scrapeGateway(t, gw)
	if v := fams["tsgate_replay_ring_frames"].Samples[0].Value; v != 0 {
		t.Errorf("tsgate_replay_ring_frames = %v after expiry, want 0", v)
	}
}
