package server

import (
	"sync/atomic"
	"testing"

	tempstream "repro"
	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// TestSessionSinkConformance applies the shared Sink harness to the
// server's session sink — the countingSink-wrapped tempstream.Session the
// wire decoder drives — proving the ingest path preserves record order,
// folds exactly one Finish, and counts every record for the stats
// endpoint.
func TestSessionSinkConformance(t *testing.T) {
	const cpus = 4
	var n atomic.Int64
	var sess *tempstream.Session
	factory := func() (trace.Sink, func() (sinktest.Observed, bool)) {
		n.Store(0)
		sess = tempstream.NewSession(cpus, 0, tempstream.StreamOptions{KeepTraces: true})
		return &countingSink{inner: sess, n: &n}, func() (sinktest.Observed, bool) {
			cr := sess.Result(nil)
			if got := n.Load(); got != int64(len(cr.Trace.Misses)) {
				t.Errorf("counting sink saw %d records, session kept %d", got, len(cr.Trace.Misses))
			}
			return sinktest.Observed{
				Misses:   cr.Trace.Misses,
				Finishes: []trace.Header{cr.Header},
			}, true
		}
	}
	// The decoder delivers whole frames; the counting wrapper must count
	// every chunk exactly, whatever its size.
	sinktest.Run(t, "server.sessionSink", 20000, cpus, factory)
}
