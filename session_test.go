package tempstream

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/trace"
)

// mustPanic runs fn and asserts it panics with a message containing
// want; the Session misuse guards promise defined messages instead of
// nil-pointer dereferences on the pooled analyzer.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one containing %q", want)
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Errorf("panic = %v, want message containing %q", r, want)
		}
	}()
	fn()
}

func TestSessionAppendAfterFinishPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	defer s.Close()
	s.AppendBatch([]trace.Miss{{Addr: 64}})
	s.Finish(trace.Header{Misses: 1, CPUs: 2})
	mustPanic(t, "AppendBatch after Finish", func() { s.AppendBatch([]trace.Miss{{Addr: 128}}) })
}

func TestSessionDoubleFinishPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	defer s.Close()
	s.Finish(trace.Header{CPUs: 2})
	mustPanic(t, "Finish called twice", func() { s.Finish(trace.Header{CPUs: 2}) })
}

func TestSessionResultBeforeFinishPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	defer s.Close()
	s.AppendBatch([]trace.Miss{{Addr: 64}})
	mustPanic(t, "Result before Finish", func() { s.Result(nil) })
}

func TestSessionDoubleResultPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	s.AppendBatch([]trace.Miss{{Addr: 64}})
	s.Finish(trace.Header{Misses: 1, CPUs: 2})
	if cr := s.Result(nil); cr == nil || len(cr.Analysis.Misses) != 1 {
		t.Fatalf("first Result = %+v, want one analyzed miss", cr)
	}
	mustPanic(t, "called twice or after Close", func() { s.Result(nil) })
	// Misuse after the analyzer went back to the pool must also be the
	// defined panic, not a nil dereference.
	mustPanic(t, "AppendBatch after Finish", func() { s.AppendBatch([]trace.Miss{{}}) })
}

// TestSessionCloseStates pins the error-returning close path: aborting a
// live stream reports ErrSessionAborted, every other close is a nil
// no-op, and Close is idempotent in all states.
func TestSessionCloseStates(t *testing.T) {
	// Mid-stream: aborted.
	s := NewSession(2, 0, StreamOptions{})
	s.AppendBatch([]trace.Miss{{Addr: 64}})
	if err := s.Close(); !errors.Is(err, ErrSessionAborted) {
		t.Errorf("Close mid-stream = %v, want ErrSessionAborted", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}

	// Finished but unread: the stream completed, so no abort.
	s = NewSession(2, 0, StreamOptions{})
	s.Finish(trace.Header{CPUs: 2})
	if err := s.Close(); err != nil {
		t.Errorf("Close after Finish = %v, want nil", err)
	}

	// After Result: nothing left to release.
	s = NewSession(2, 0, StreamOptions{})
	s.Finish(trace.Header{CPUs: 2})
	s.Result(nil)
	if err := s.Close(); err != nil {
		t.Errorf("Close after Result = %v, want nil", err)
	}
}

// TestSessionCloseBalancesPool asserts Close returns the analyzer in
// every state, through the pool's checked-out counter.
func TestSessionCloseBalancesPool(t *testing.T) {
	base := analyzersOut.Load()
	open := NewSession(2, 0, StreamOptions{})
	finished := NewSession(2, 0, StreamOptions{})
	finished.Finish(trace.Header{CPUs: 2})
	resulted := NewSession(2, 0, StreamOptions{})
	resulted.Finish(trace.Header{CPUs: 2})
	resulted.Result(nil)
	if got := analyzersOut.Load(); got != base+2 { // Result already returned one
		t.Fatalf("checked-out analyzers = %d, want %d", got, base+2)
	}
	open.Close()
	finished.Close()
	resulted.Close()
	if got := analyzersOut.Load(); got != base {
		t.Errorf("checked-out analyzers after Close = %d, want %d", got, base)
	}
}

// TestIdleAnalyzerLifetime pins the idle list's two lifetime rules: a
// returned analyzer is handed out again after one collection, to a
// caller on another goroutine, and one left unclaimed is released by the
// second collection (so idle analyzers never count as live heap once
// the process has settled). The test holds the analyzer only weakly
// across each collection.
func TestIdleAnalyzerLifetime(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts")
	}
	an := getAnalyzer()
	w := weak.Make(an)
	putAnalyzer(an)
	an = nil
	runtime.GC()
	got := make(chan weak.Pointer[core.Analyzer])
	go func() { got <- weak.Make(getAnalyzer()) }()
	if <-got != w {
		t.Fatalf("a returned analyzer was not reused after one collection")
	}
	putAnalyzer(w.Value())
	runtime.GC()
	runtime.GC()
	if w.Value() != nil {
		t.Errorf("an unclaimed analyzer outlived two collections")
	}
}
