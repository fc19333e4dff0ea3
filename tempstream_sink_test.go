package tempstream

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// TestSessionSinkConformance applies the shared Sink harness to the
// streaming Session (the consumer behind Runner.Run and the ingest
// server) with no trace kept: the analyzer's own window must be the
// driven stream verbatim, and the result header the folded Finish.
func TestSessionSinkConformance(t *testing.T) {
	const cpus = 4
	sinktest.Run(t, "tempstream.Session", 40000, cpus, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		s := NewSession(cpus, 0, StreamOptions{})
		return s, func() (sinktest.Observed, bool) {
			cr := s.Result(nil)
			return sinktest.Observed{
				Misses:   cr.Analysis.Misses,
				Finishes: []trace.Header{cr.Header},
			}, true
		}
	})
}

// TestSessionBatchConformance runs the harness over Sessions that keep
// their trace, observing the kept trace. A session with a prefetcher
// forks its evaluator per chunk and must behave identically, so both
// variants run.
func TestSessionBatchConformance(t *testing.T) {
	const cpus = 4
	for _, tc := range []struct {
		name string
		opts StreamOptions
	}{
		{"tempstream.Session", StreamOptions{KeepTraces: true}},
		{"tempstream.Session/sharded", StreamOptions{KeepTraces: true, Prefetch: &streamPfCfg}},
	} {
		sinktest.Run(t, tc.name, 40000, cpus, func() (trace.Sink, func() (sinktest.Observed, bool)) {
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

// TestSessionBatchMatchesAppend is the Session's split-invariance check
// on the full analysis (not just the kept trace): the same stream fed
// record by record, in uneven chunks with empty ones between, and as
// one whole chunk must each produce core.Analyze's analysis over the
// stream, and with a prefetcher attached prefetch.Evaluate's counters,
// although each chunk's evaluation ran on its own goroutine.
func TestSessionBatchMatchesAppend(t *testing.T) {
	const cpus, n = 4, 50000
	misses := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)
	whole := &trace.Trace{Misses: misses, CPUs: cpus}
	analysis := core.Analyze(whole, core.Options{})
	evaluated := prefetch.Evaluate(whole, streamPfCfg)

	records := make([]int, n)
	for i := range records {
		records[i] = 1
	}
	splits := []struct {
		name   string
		chunks []int // chunk lengths in drive order
	}{
		{"records", records},
		{"uneven", []int{100, 0, trace.PipeChunk + 50, 1, 0, 7, 30000, n - trace.PipeChunk - 30158}},
		{"whole", []int{n}},
	}
	for _, sp := range splits {
		for _, pf := range []*prefetch.Config{nil, &streamPfCfg} {
			s := NewSession(cpus, 0, StreamOptions{Prefetch: pf})
			sent := 0
			for _, c := range sp.chunks {
				s.AppendBatch(misses[sent : sent+c])
				sent += c
			}
			if sent != n {
				t.Fatalf("%s: split covers %d records, want %d", sp.name, sent, n)
			}
			s.Finish(h)
			got := s.Result(nil)
			if got.Header != h {
				t.Errorf("%s, prefetch %v: header %+v, want %+v", sp.name, pf != nil, got.Header, h)
			}
			if !reflect.DeepEqual(got.Analysis, analysis) {
				t.Errorf("%s, prefetch %v: analysis differs from core.Analyze (%d rules vs %d)",
					sp.name, pf != nil, got.Analysis.GrammarRules(), analysis.GrammarRules())
			}
			if (got.Prefetch != nil) != (pf != nil) {
				t.Fatalf("%s: prefetch counters present %v, want %v", sp.name, got.Prefetch != nil, pf != nil)
			}
			if pf != nil && *got.Prefetch != evaluated {
				t.Errorf("%s: prefetch counters %+v, want %+v", sp.name, *got.Prefetch, evaluated)
			}
		}
	}
}

// TestSessionAllocations guards a Session's memory: a warmed session fed
// 1000 records in one chunk allocates under 512 KiB from NewSession to
// Result. A per-session staging buffer of 32768 records (512 KiB) alone
// would break it. Keeping the trace adds almost nothing, because the
// analysis window is the kept trace's prefix: a second copy of the
// records would add 16 KB.
func TestSessionAllocations(t *testing.T) {
	const cpus, n, runs = 4, 1000, 5
	ms := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)
	perSession := func(opts StreamOptions) uint64 {
		run := func() {
			s := NewSession(cpus, n, opts)
			s.AppendBatch(ms)
			s.Finish(h)
			s.Result(nil)
		}
		run() // warm the analyzer pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	plain, kept := perSession(StreamOptions{}), perSession(StreamOptions{KeepTraces: true})
	t.Logf("bytes per %d-record session: %d, %d keeping the trace", n, plain, kept)
	if plain >= 512<<10 {
		t.Errorf("a %d-record session allocates %d bytes, want under %d", n, plain, 512<<10)
	}
	if kept > plain+(4<<10) {
		t.Errorf("a %d-record session keeping its trace allocates %d bytes, want within 4 KiB of the %d without", n, kept, plain)
	}
}

// TestSessionKeptTraceAllocations guards a long kept trace against
// regrowth. A session that keeps a stream 300 times longer than its
// expected length stores the records in fixed chunks and joins them
// once, at the final size, so it allocates about twice the trace's
// bytes; growing one slice by append would copy it again at every step,
// about five times the trace's bytes in all. The joined trace has no
// capacity past its end.
func TestSessionKeptTraceAllocations(t *testing.T) {
	const cpus, expect, n = 4, 1000, 300000
	ms := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)
	opts := StreamOptions{Analysis: core.Options{MaxMisses: expect}, KeepTraces: true}
	run := func() *trace.Trace {
		s := NewSession(cpus, expect, opts)
		for c := ms; len(c) > 0; {
			k := min(len(c), trace.PipeChunk)
			s.AppendBatch(c[:k])
			c = c[k:]
		}
		s.Finish(h)
		return s.Result(nil).Trace
	}
	run() // warm the analyzer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := run()
	runtime.ReadMemStats(&after)
	if !reflect.DeepEqual(tr.Misses, ms) {
		t.Fatal("kept trace differs from the stream")
	}
	if cap(tr.Misses) != n {
		t.Errorf("kept trace holds %d misses in capacity %d", n, cap(tr.Misses))
	}
	traceBytes := uint64(n) * uint64(reflect.TypeFor[trace.Miss]().Size())
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-record kept trace (%d bytes) allocated %d bytes", n, traceBytes, got)
	if got > traceBytes*5/2 {
		t.Errorf("keeping a %d-byte trace allocated %d bytes, want at most %d", traceBytes, got, traceBytes*5/2)
	}
}

// TestSessionAbandon checks the error-path escape hatch: closing a
// half-fed session must be safe, and the pooled analyzer must come back
// reusable.
func TestSessionAbandon(t *testing.T) {
	s := NewSession(4, 0, StreamOptions{})
	s.AppendBatch(sinktest.Misses(10000, 4))
	if err := s.Close(); !errors.Is(err, ErrSessionAborted) {
		t.Fatalf("Close of a half-fed session = %v, want ErrSessionAborted", err)
	}

	// The pool must hand out working analyzers afterwards.
	s2 := NewSession(4, 0, StreamOptions{})
	misses := sinktest.Misses(5000, 4)
	s2.AppendBatch(misses)
	s2.Finish(sinktest.Header(len(misses), 4))
	cr := s2.Result(nil)
	if len(cr.Analysis.Misses) != len(misses) {
		t.Fatalf("post-close session analyzed %d misses, want %d", len(cr.Analysis.Misses), len(misses))
	}
}
