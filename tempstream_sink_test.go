package tempstream

import (
	"errors"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// TestSessionSinkConformance applies the shared Sink harness to the
// streaming Session (the consumer behind Runner.Run and the ingest
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
// session with a prefetcher forks its evaluator per chunk and must
// behave identically, so both variants run.
func TestSessionBatchConformance(t *testing.T) {
	const cpus = 4
	for _, tc := range []struct {
		name string
		opts StreamOptions
	}{
		{"tempstream.Session", StreamOptions{KeepTraces: true}},
		{"tempstream.Session/sharded", StreamOptions{KeepTraces: true, Prefetch: &streamPfCfg}},
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
// record and once in uneven batches must produce identical analyses, and
// both must carry prefetch.Evaluate's counters over the stream, although
// each chunk's evaluation ran on its own goroutine.
func TestSessionBatchMatchesAppend(t *testing.T) {
	const cpus, n = 4, 50000
	misses := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)
	opts := StreamOptions{Prefetch: &streamPfCfg}
	evaluated := prefetch.Evaluate(&trace.Trace{Misses: misses, CPUs: cpus}, streamPfCfg)

	ref := NewSession(cpus, 0, opts)
	for _, m := range misses {
		ref.Append(m)
	}
	ref.Finish(h)
	want := ref.Result(nil)
	if *want.Prefetch != evaluated {
		t.Errorf("per-record: prefetch counters %+v, want %+v", *want.Prefetch, evaluated)
	}

	s := NewSession(cpus, 0, opts)
	// Batch sizes sweep both regimes: tiny (buffered), then one
	// straddling batchDirect, then the large remainder (direct).
	s.AppendBatch(misses[:100])
	s.AppendBatch(misses[100 : batchDirect+50])
	s.AppendBatch(misses[batchDirect+50:])
	s.Finish(h)
	got := s.Result(nil)
	if len(got.Analysis.Misses) != len(want.Analysis.Misses) {
		t.Fatalf("window %d vs %d", len(got.Analysis.Misses), len(want.Analysis.Misses))
	}
	if got.Analysis.GrammarRules() != want.Analysis.GrammarRules() {
		t.Errorf("grammar rules %d vs %d", got.Analysis.GrammarRules(), want.Analysis.GrammarRules())
	}
	if got.Header != want.Header {
		t.Errorf("header %+v vs %+v", got.Header, want.Header)
	}
	if *got.Prefetch != evaluated {
		t.Errorf("batched: prefetch counters %+v, want %+v", *got.Prefetch, evaluated)
	}
}

// TestSessionAbandon checks the error-path escape hatch: closing a
// half-fed session must be safe, and the pooled analyzer must come back
// reusable.
func TestSessionAbandon(t *testing.T) {
	s := NewSession(4, 0, StreamOptions{})
	for _, m := range sinktest.Misses(10000, 4) {
		s.Append(m)
	}
	if err := s.Close(); !errors.Is(err, ErrSessionAborted) {
		t.Fatalf("Close of a half-fed session = %v, want ErrSessionAborted", err)
	}

	// The pool must hand out working analyzers afterwards.
	s2 := NewSession(4, 0, StreamOptions{})
	misses := sinktest.Misses(5000, 4)
	for _, m := range misses {
		s2.Append(m)
	}
	s2.Finish(sinktest.Header(len(misses), 4))
	cr := s2.Result(nil)
	if len(cr.Analysis.Misses) != len(misses) {
		t.Fatalf("post-close session analyzed %d misses, want %d", len(cr.Analysis.Misses), len(misses))
	}
}
