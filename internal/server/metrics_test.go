package server_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// scrapeServer renders the server's registry and parses it back with the
// strict exposition parser, failing on any format or naming violation.
func scrapeServer(t *testing.T, srv *server.Server) map[string]*obs.Family {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
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

// TestServerMetrics ingests one session and checks the tsserved_*
// families: valid exposition, required series, the transport byte
// counter advancing, and the close-latency histogram recording the
// session under outcome="done".
func TestServerMetrics(t *testing.T) {
	srv := startServer(t, server.Config{})
	addr := srv.Addr().String()

	cs := dial(t, addr, 2, server.Request{Label: "metrics"})
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	for i := 0; i < n; i++ {
		cs.Append(trace.Miss{Addr: uint64(rng.Intn(1<<20)) << 6, CPU: uint8(i % 2)})
	}
	cs.Finish(trace.Header{Misses: n, Instructions: n * 100, CPUs: 2})
	if _, err := cs.Result(); err != nil {
		t.Fatalf("Result: %v", err)
	}

	fams := scrapeServer(t, srv)
	for _, name := range []string{
		"tsserved_sessions_total",
		"tsserved_sessions_shed_total",
		"tsserved_sessions_parked_total",
		"tsserved_sessions_resumed_total",
		"tsserved_sessions_expired_total",
		"tsserved_records_total",
		"tsserved_sessions_active",
		"tsserved_sessions_queued",
		"tsserved_sessions_parked",
		"tsserved_analyzer_slots",
		"tsserved_analyzer_slots_in_use",
		"tsserved_uptime_seconds",
		"tsserved_ingest_bytes_total",
		"tsserved_session_close_seconds",
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
	if v := value("tsserved_sessions_total"); v != 1 {
		t.Errorf("tsserved_sessions_total = %v, want 1", v)
	}
	if v := value("tsserved_records_total"); v != n {
		t.Errorf("tsserved_records_total = %v, want %d", v, n)
	}
	if v := value("tsserved_ingest_bytes_total"); v <= 0 {
		t.Errorf("tsserved_ingest_bytes_total = %v, want > 0", v)
	}
	if v := value("tsserved_sessions_active"); v != 0 {
		t.Errorf("tsserved_sessions_active = %v after session end, want 0", v)
	}

	var doneCount float64
	for _, s := range fams["tsserved_session_close_seconds"].Samples {
		if s.Name == "tsserved_session_close_seconds_count" && s.Labels["outcome"] == "done" {
			doneCount = s.Value
		}
	}
	if doneCount != 1 {
		t.Errorf("close_seconds count{outcome=done} = %v, want 1", doneCount)
	}
}

// TestServerMetricsFailedSession checks that a malformed stream lands in
// the failed-by-code counter with the protocol's error code label.
func TestServerMetricsFailedSession(t *testing.T) {
	srv := startServer(t, server.Config{})
	conn, _ := dialPlain(t, srv.Addr().String(), 2, server.Request{Label: "bad"})
	// Finish the stream without any data — then poison the wire by
	// closing early; the server's read fails mid-stream.
	conn.Close()

	var fams map[string]*obs.Family
	waitFor(t, "failed session to be recorded", func() bool {
		fams = scrapeServer(t, srv)
		f := fams["tsserved_sessions_failed_total"]
		if f == nil {
			return false
		}
		total := 0.0
		for _, s := range f.Samples {
			total += s.Value
		}
		return total >= 1
	})
	for _, s := range fams["tsserved_sessions_failed_total"].Samples {
		if s.Labels["code"] == "" {
			t.Errorf("failed-session series missing its code label: %+v", s)
		}
	}
}
