package server

import (
	"testing"

	tempstream "repro"
	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// TestSessionSinkConformance applies the shared Sink harness to the
// server's session sink — the tempstream.Session the wire decoder drives
// — proving the ingest path preserves record order and folds exactly one
// Finish. The session's record count for the stats endpoint is the
// decoder's (TestServerStatsCountsDeliveredRecords).
func TestSessionSinkConformance(t *testing.T) {
	const cpus = 4
	factory := func() (trace.Sink, func() (sinktest.Observed, bool)) {
		sess := tempstream.NewSession(cpus, 0, tempstream.StreamOptions{KeepTraces: true})
		return sess, func() (sinktest.Observed, bool) {
			cr := sess.Result(nil)
			return sinktest.Observed{
				Misses:   cr.Trace.Misses,
				Finishes: []trace.Header{cr.Header},
			}, true
		}
	}
	sinktest.Run(t, "server.sessionSink", 20000, cpus, factory)
}
