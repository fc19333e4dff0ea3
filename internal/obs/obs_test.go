package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testRegistry builds a registry exercising every instrument shape.
func testRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("tsserved_records_total", "Records ingested.")
	c.Add(12345)
	r.GaugeFunc("tsserved_sessions_active", "Sessions currently receiving.", func() float64 { return 3 })
	h := r.HistogramVec("tsserved_session_seconds", "Session wall-clock at close.", nil, "outcome").With("done")
	h.Observe(0.004)
	h.Observe(0.2)
	h.Observe(999)
	cv := r.CounterVec("tsserved_sessions_failed_total", "Failed sessions by error code.", "code")
	cv.With("busy").Add(2)
	cv.With("stream").Inc()
	r.GaugeFunc("tsserved_sessions_queued", "Sessions waiting for a slot.", func() float64 { return 7 })
	r.GaugeVecFunc("tsgate_backend_active_sessions", "Active sessions per backend.",
		[]string{"backend"}, func(emit Emit) {
			emit([]string{"10.0.0.2:7465"}, 4)
			emit([]string{"10.0.0.1:7465"}, 1)
		})
	hv := r.HistogramVec("tsgate_probe_seconds", "Probe round-trip time.", []float64{0.01, 0.1}, "backend")
	hv.With(`weird"back\slash`).Observe(0.05)
	return r
}

// TestExpositionParses is the acceptance pin: everything the writer
// produces must satisfy the strict parser, and every registered family
// must come back with the right type and samples.
func TestExpositionParses(t *testing.T) {
	r := testRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	byName := map[string]*Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []struct {
		name, typ string
		samples   int
	}{
		{"tsserved_records_total", "counter", 1},
		{"tsserved_sessions_active", "gauge", 1},
		{"tsserved_session_seconds", "histogram", len(DefBuckets()) + 3},
		{"tsserved_sessions_failed_total", "counter", 2},
		{"tsserved_sessions_queued", "gauge", 1},
		{"tsgate_backend_active_sessions", "gauge", 2},
		{"tsgate_probe_seconds", "histogram", 2 + 1 + 2},
	} {
		f := byName[want.name]
		if f == nil {
			t.Fatalf("family %s missing from exposition:\n%s", want.name, buf.String())
		}
		if f.Type != want.typ {
			t.Errorf("%s: type %s, want %s", want.name, f.Type, want.typ)
		}
		if len(f.Samples) != want.samples {
			t.Errorf("%s: %d samples, want %d", want.name, len(f.Samples), want.samples)
		}
	}
	// Spot-check values survived the round trip.
	if v := byName["tsserved_records_total"].Samples[0].Value; v != 12345 {
		t.Errorf("records_total = %g, want 12345", v)
	}
	var busy float64
	for _, s := range byName["tsserved_sessions_failed_total"].Samples {
		if s.Labels["code"] == "busy" {
			busy = s.Value
		}
	}
	if busy != 2 {
		t.Errorf("failed_total{code=busy} = %g, want 2", busy)
	}
	// The escaped label value must decode back to the original.
	probe := byName["tsgate_probe_seconds"]
	found := false
	for _, s := range probe.Samples {
		if s.Labels["backend"] == `weird"back\slash` {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label value did not round-trip:\n%s", buf.String())
	}
}

// TestHistogramBuckets pins cumulative bucket semantics.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("tsserved_session_seconds", "x", []float64{1, 2, 4}, "outcome").With("done")
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := map[string]uint64{"1": 2, "2": 3, "4": 4, "+Inf": 5}
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams[0].Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		if got := uint64(s.Value); got != want[s.Labels["le"]] {
			t.Errorf("bucket le=%s: %d, want %d", s.Labels["le"], got, want[s.Labels["le"]])
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+3+100 {
		t.Errorf("Sum = %g", h.Sum())
	}
}

// TestNamingLint runs the convention lint over the test registry (all
// conforming) and over deliberate violations.
func TestNamingLint(t *testing.T) {
	var buf bytes.Buffer
	testRegistry().WritePrometheus(&buf)
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if problems := LintNames(fams); len(problems) != 0 {
		t.Errorf("conforming registry flagged: %v", problems)
	}
	bad := []*Family{
		{Name: "records_total", Type: "counter"},            // no prefix
		{Name: "tsserved_records", Type: "counter"},         // counter without _total
		{Name: "tsserved_queue_total", Type: "gauge"},       // gauge with _total
		{Name: "tsserved_CamelCase_total", Type: "counter"}, // not snake_case
	}
	if problems := LintNames(bad); len(problems) != 4 {
		t.Errorf("want 4 violations, got %v", problems)
	}
}

// TestParserRejectsMalformed feeds the strict parser the failure shapes
// the e2e scrape check must catch.
func TestParserRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"no type line", "tsserved_x_total 1\n"},
		{"bad value", "# TYPE tsserved_x_total counter\ntsserved_x_total one\n"},
		{"unterminated labels", "# TYPE tsserved_x_total counter\ntsserved_x_total{a=\"b 1\n"},
		{"unquoted label", "# TYPE tsserved_x_total counter\ntsserved_x_total{a=b} 1\n"},
		{"bad name", "# TYPE 9bad counter\n"},
		{"bucket without le", "# TYPE tsserved_h histogram\ntsserved_h_bucket 1\n"},
		{"histogram without suffix", "# TYPE tsserved_h histogram\ntsserved_h 1\n"},
		{"type after samples", "# TYPE tsserved_x_total counter\ntsserved_x_total 1\n# TYPE tsserved_x_total gauge\n"},
	} {
		if _, err := ParseText(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}
}

// TestConcurrentScrapeUnderLoad hammers every instrument from many
// goroutines while scraping continuously — the -race pin for the atomic
// hot paths, and a liveness check that scrapes parse mid-flight.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tsserved_records_total", "x")
	var active atomic.Int64
	r.GaugeFunc("tsserved_sessions_active", "x", func() float64 { return float64(active.Load()) })
	h := r.HistogramVec("tsserved_session_seconds", "x", nil, "outcome").With("done")
	cv := r.CounterVec("tsserved_sessions_failed_total", "x", "code")
	const workers, iters = 4, 5000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			code := fmt.Sprintf("code%d", w)
			for i := 0; i < iters; i++ {
				c.Inc()
				active.Store(int64(i % 10))
				h.Observe(float64(i%1000) / 100)
				cv.With(code).Inc()
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	scrape := func(i int) {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if _, err := ParseText(&buf); err != nil {
			t.Fatalf("scrape %d malformed under load: %v", i, err)
		}
	}
	running := true
	for i := 0; running; i++ {
		select {
		case <-done:
			running = false
		default:
			scrape(i)
		}
	}
	scrape(-1)
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %g, want %d (lost updates)", got, workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}

// TestMuxSurfaces checks the shared mux: /stats JSON with Content-Type,
// /metrics parsing, pprof mounted only behind the flag.
func TestMuxSurfaces(t *testing.T) {
	reg := testRegistry()
	stats := JSONHandler(func() any { return map[string]int{"sessions": 3} })
	for _, withPprof := range []bool{false, true} {
		mux := NewMux(stats, reg, withPprof, nil)
		srv := httptest.NewServer(mux)
		get := func(path string) (int, string, string) {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp.StatusCode, resp.Header.Get("Content-Type"), buf.String()
		}
		code, ct, body := get("/stats")
		if code != 200 || ct != "application/json" || !strings.Contains(body, `"sessions"`) {
			t.Errorf("/stats: code=%d ct=%q body=%q", code, ct, body)
		}
		code, ct, body = get("/metrics")
		if code != 200 || !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("/metrics: code=%d ct=%q", code, ct)
		}
		if _, err := ParseText(strings.NewReader(body)); err != nil {
			t.Errorf("/metrics malformed: %v", err)
		}
		code, _, _ = get("/debug/pprof/cmdline")
		if withPprof && code != 200 {
			t.Errorf("pprof enabled but /debug/pprof/cmdline = %d", code)
		}
		if !withPprof && code != 404 {
			t.Errorf("pprof disabled but /debug/pprof/cmdline = %d", code)
		}
		srv.Close()
	}
}

// TestCounterPanicsOnNegative pins the counter contract.
func TestCounterPanicsOnNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tsserved_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

// TestDuplicateRegistrationPanics pins registry misuse.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("tsserved_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("tsserved_x_total", "x", func() float64 { return 0 })
}

// TestFormatValue pins special-value rendering.
func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {1.5, "1.5"}, {1e9, "1e+09"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
