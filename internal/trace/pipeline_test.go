package trace_test

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// TestPipelinedEquivalence drives the same stream into a bare Trace and
// a Pipelined-wrapped Trace — mixing one-record chunks with chunks that
// straddle the pipeline's chunk boundaries — and requires identical
// contents.
func TestPipelinedEquivalence(t *testing.T) {
	const n = 3*trace.PipeChunk + 37
	ms := sinktest.Misses(n, 4)
	h := sinktest.Header(n, 4)

	want := &trace.Trace{}
	want.AppendBatch(ms)
	want.Finish(h)

	got := &trace.Trace{}
	p := trace.NewPipelined(got)
	// Odd split sizes so chunk boundaries and PipeChunk boundaries
	// interleave: single records, a large chunk, an empty chunk, the rest.
	for i := range 100 {
		p.AppendBatch(ms[i : i+1])
	}
	p.AppendBatch(ms[100 : 2*trace.PipeChunk+5])
	p.AppendBatch(nil)
	p.AppendBatch(ms[2*trace.PipeChunk+5:])
	p.Finish(h)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pipelined Trace differs from direct Trace (got %d records, want %d)",
			got.Len(), want.Len())
	}
}

// TestPipelinedCloseWithoutFinish is the cancelled-stream path: Close
// with no Finish must drain what was pushed, deliver no header, and
// return with the consumer goroutine gone.
func TestPipelinedCloseWithoutFinish(t *testing.T) {
	got := &trace.Trace{}
	p := trace.NewPipelined(got)
	ms := sinktest.Misses(trace.PipeChunk+10, 2)
	p.AppendBatch(ms)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The full chunk was pushed and must be drained; the 10-record
	// partial chunk was never handed over and is dropped with the
	// pipeline — both fine for a cancelled stream, but nothing may be
	// reordered or duplicated.
	if got.Len() != trace.PipeChunk {
		t.Fatalf("drained %d records, want %d (the pushed chunk)", got.Len(), trace.PipeChunk)
	}
	for i, m := range got.Misses {
		if m != ms[i] {
			t.Fatalf("record %d differs after cancel-drain", i)
		}
	}
	if got.CPUs != 0 {
		t.Fatal("header delivered despite no Finish")
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestPipelinedConformance runs the sink conformance harness over a
// Pipelined-wrapped recorder,
// with Close folded into the observation point so the harness sees a
// settled sink. Sizes straddle the chunk boundary on both sides.
func TestPipelinedConformance(t *testing.T) {
	for _, n := range []int{1, trace.PipeChunk - 1, trace.PipeChunk, trace.PipeChunk + 1, 3 * trace.PipeChunk} {
		factory := func() (trace.Sink, func() (sinktest.Observed, bool)) {
			r := &recorder{}
			p := trace.NewPipelined(r)
			return p, func() (sinktest.Observed, bool) {
				p.Close()
				return r.observed()
			}
		}
		sinktest.Run(t, "Pipelined", n, 4, factory)
	}
}
