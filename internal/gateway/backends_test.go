package gateway_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/server"
)

// TestBackendsHandler drives tsgate's /backends admin endpoint: GET lists
// the membership sorted, POST replaces it and answers the diff, an empty
// list or a body over proto.MaxLine answers 400 and leaves the membership
// as it was, and any other method answers 405.
func TestBackendsHandler(t *testing.T) {
	cfg := testConfig([]string{"127.0.0.1:3", "127.0.0.1:1", "127.0.0.1:2"})
	cfg.Probe = func(string, time.Duration) (*server.Stats, error) { return &server.Stats{}, nil }
	h := startGateway(t, cfg).BackendsHandler()
	do := func(method, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/backends", strings.NewReader(body)))
		return rec
	}
	members := func() string {
		t.Helper()
		rec := do(http.MethodGet, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET: status %d, body %q", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain" {
			t.Errorf("GET: Content-Type %q, want text/plain", ct)
		}
		return rec.Body.String()
	}

	if got, want := members(), "127.0.0.1:1\n127.0.0.1:2\n127.0.0.1:3\n"; got != want {
		t.Errorf("GET = %q, want %q", got, want)
	}

	rec := do(http.MethodPost, "127.0.0.1:5, 127.0.0.1:2\n# spare\n127.0.0.1:4\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST: status %d, body %q", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("POST: Content-Type %q, want application/json", ct)
	}
	var diff struct{ Backends, Added, Removed []string }
	if err := json.Unmarshal(rec.Body.Bytes(), &diff); err != nil {
		t.Fatalf("POST: decoding %q: %v", rec.Body, err)
	}
	want := struct{ Backends, Added, Removed []string }{
		Backends: []string{"127.0.0.1:5", "127.0.0.1:2", "127.0.0.1:4"},
		Added:    []string{"127.0.0.1:4", "127.0.0.1:5"},
		Removed:  []string{"127.0.0.1:1", "127.0.0.1:3"},
	}
	if !reflect.DeepEqual(diff, want) {
		t.Errorf("POST diff = %+v, want %+v", diff, want)
	}
	after := "127.0.0.1:2\n127.0.0.1:4\n127.0.0.1:5\n"
	if got := members(); got != after {
		t.Errorf("GET after POST = %q, want %q", got, after)
	}

	// A body of exactly proto.MaxLine bytes is read whole; one byte more
	// is refused.
	full := "127.0.0.1:2" + strings.Repeat(" ", proto.MaxLine-len("127.0.0.1:2"))
	if rec := do(http.MethodPost, full); rec.Code != http.StatusOK {
		t.Errorf("POST of %d bytes: status %d, want 200", len(full), rec.Code)
	}
	after = "127.0.0.1:2\n"
	for _, c := range []struct{ name, body string }{
		{"empty", ""},
		{"blank", " ,\n# none\n"},
		{"too large", full + " 127.0.0.1:9"},
	} {
		if rec := do(http.MethodPost, c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", c.name, rec.Code)
		}
		if got := members(); got != after {
			t.Errorf("GET after the refused POST %s = %q, want %q", c.name, got, after)
		}
	}

	for _, m := range []string{http.MethodPut, http.MethodDelete, http.MethodPatch, http.MethodHead} {
		if rec := do(m, "127.0.0.1:7"); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405", m, rec.Code)
		}
	}
	if got := members(); got != after {
		t.Errorf("GET after the refused methods = %q, want %q", got, after)
	}
}
