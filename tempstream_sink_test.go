package tempstream

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// TestSessionSinkConformance applies the shared Sink harness to the
// streaming Session (the consumer behind CollectStreaming and the ingest
// server). KeepTraces makes the session observable: the kept trace must
// be the driven stream verbatim, and the result header the folded Finish.
func TestSessionSinkConformance(t *testing.T) {
	const cpus = 4
	sinktest.Run(t, "tempstream.Session", 40000, cpus, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		s := NewSession(cpus, 0, StreamOptions{KeepTraces: true})
		return s, func() (sinktest.Observed, bool) {
			cr := s.Result(nil)
			return sinktest.Observed{
				Misses:   cr.Trace.Misses,
				Finishes: []trace.Header{cr.Header},
			}, true
		}
	})
}

// TestSessionBatchConformance drives the Session through the BatchSink
// harness, covering both AppendBatch regimes: the interleave shape's
// small batches land in the chunk buffer, while sizes past batchDirect
// (the 40000-record one-batch shape) take the direct consume path. A
// sharded session must behave identically, so both variants run.
func TestSessionBatchConformance(t *testing.T) {
	const cpus = 4
	for _, tc := range []struct {
		name string
		opts StreamOptions
	}{
		{"tempstream.Session", StreamOptions{KeepTraces: true}},
		{"tempstream.Session/sharded", StreamOptions{KeepTraces: true, ShardConsumers: true,
			Prefetch: &streamPfCfg}},
	} {
		sinktest.RunBatch(t, tc.name, 40000, cpus, func() (trace.Sink, func() (sinktest.Observed, bool)) {
			s := NewSession(cpus, 0, tc.opts)
			return s, func() (sinktest.Observed, bool) {
				cr := s.Result(nil)
				return sinktest.Observed{
					Misses:   cr.Trace.Misses,
					Finishes: []trace.Header{cr.Header},
				}, true
			}
		})
	}
}

// TestSessionBatchMatchesAppend pins batch/record equivalence on the
// full analysis (not just the kept trace): the same stream fed once per
// record and once in uneven batches must produce identical analyses and
// prefetch counters, sharded or not.
func TestSessionBatchMatchesAppend(t *testing.T) {
	const cpus, n = 4, 50000
	misses := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)
	opts := StreamOptions{Prefetch: &streamPfCfg}

	ref := NewSession(cpus, 0, opts)
	for _, m := range misses {
		ref.Append(m)
	}
	ref.Finish(h)
	want := ref.Result(nil)

	for _, shard := range []bool{false, true} {
		o := opts
		o.ShardConsumers = shard
		s := NewSession(cpus, 0, o)
		// Batch sizes sweep both regimes: tiny (buffered), then one
		// straddling batchDirect, then the large remainder (direct).
		s.AppendBatch(misses[:100])
		s.AppendBatch(misses[100 : batchDirect+50])
		s.AppendBatch(misses[batchDirect+50:])
		s.Finish(h)
		got := s.Result(nil)
		label := map[bool]string{false: "serial", true: "sharded"}[shard]
		if len(got.Analysis.Misses) != len(want.Analysis.Misses) {
			t.Fatalf("%s: window %d vs %d", label, len(got.Analysis.Misses), len(want.Analysis.Misses))
		}
		if got.Analysis.GrammarRules() != want.Analysis.GrammarRules() {
			t.Errorf("%s: grammar rules %d vs %d", label, got.Analysis.GrammarRules(), want.Analysis.GrammarRules())
		}
		if got.Header != want.Header {
			t.Errorf("%s: header %+v vs %+v", label, got.Header, want.Header)
		}
		if *got.Prefetch != *want.Prefetch {
			t.Errorf("%s: prefetch counters %+v vs %+v", label, *got.Prefetch, *want.Prefetch)
		}
	}
}

// TestSessionAbandon checks the error-path escape hatch: abandoning a
// half-fed session must be safe, and the pooled analyzer must come back
// reusable.
func TestSessionAbandon(t *testing.T) {
	s := NewSession(4, 0, StreamOptions{})
	for _, m := range sinktest.Misses(10000, 4) {
		s.Append(m)
	}
	s.Abandon()

	// The pool must hand out working analyzers afterwards.
	s2 := NewSession(4, 0, StreamOptions{})
	misses := sinktest.Misses(5000, 4)
	for _, m := range misses {
		s2.Append(m)
	}
	s2.Finish(sinktest.Header(len(misses), 4))
	cr := s2.Result(nil)
	if len(cr.Analysis.Misses) != len(misses) {
		t.Fatalf("post-abandon session analyzed %d misses, want %d", len(cr.Analysis.Misses), len(misses))
	}
}
