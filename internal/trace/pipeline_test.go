package trace_test

import (
	"reflect"
	"testing"
	"time"

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

// TestPipelinedOrderedTransfer streams five channels' worth of chunks,
// in 777-record appends that never align with PipeChunk, while the
// consumer runs; every record must reach the sink exactly once and in
// order, followed by one Finish. The channel and the free list wrap
// many times, so under -race this is the memory-ordering check for the
// chunk handoff and for the recycled chunk buffers.
func TestPipelinedOrderedTransfer(t *testing.T) {
	const n = 5*trace.DefaultPipeDepth*trace.PipeChunk + 37
	ms := sinktest.Misses(n, 4)
	h := sinktest.Header(n, 4)

	r := &recorder{}
	p := trace.NewPipelined(r)
	for rest := ms; len(rest) > 0; {
		k := min(777, len(rest))
		p.AppendBatch(rest[:k])
		rest = rest[k:]
	}
	p.Finish(h)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if len(r.misses) != n {
		t.Fatalf("sink received %d records, want %d", len(r.misses), n)
	}
	for i, m := range r.misses {
		if m != ms[i] {
			t.Fatalf("record %d = %+v, want %+v", i, m, ms[i])
		}
	}
	if len(r.finishes) != 1 || r.finishes[0] != h {
		t.Fatalf("Finish calls = %+v, want exactly one with %+v", r.finishes, h)
	}
	if got, want := p.Stats().Chunks, uint64((n+trace.PipeChunk-1)/trace.PipeChunk); got != want {
		t.Fatalf("Chunks = %d, want %d", got, want)
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

// TestPipelinedCloseDrains: with the consumer parked in the first
// chunk and DefaultPipeDepth chunks queued behind it — a full channel,
// reached without a producer stall — Close without Finish must hand
// every queued chunk to the sink, in order and with no header, before
// it returns.
func TestPipelinedCloseDrains(t *testing.T) {
	const chunks = trace.DefaultPipeDepth + 1
	sink := newParkingSink()
	p := trace.NewPipelined(sink)
	ms := sinktest.Misses(chunks*trace.PipeChunk, 2)
	for i := range chunks {
		p.AppendBatch(ms[i*trace.PipeChunk : (i+1)*trace.PipeChunk])
		if i == 0 {
			<-sink.entered
		}
	}
	if got := p.Stats().ProducerStalls; got != 0 {
		t.Errorf("filling the channel to DefaultPipeDepth read ProducerStalls = %d, want 0", got)
	}
	// Release the consumer while Close waits for the drain (the sleep
	// makes that the likely order; the checks below hold in either).
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(sink.release)
	}()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if len(sink.misses) != len(ms) {
		t.Fatalf("drained %d records, want %d", len(sink.misses), len(ms))
	}
	for i, m := range sink.misses {
		if m != ms[i] {
			t.Fatalf("record %d differs after close-drain", i)
		}
	}
	if len(sink.finishes) != 0 {
		t.Fatalf("Finish called %d times despite no Finish", len(sink.finishes))
	}
	if got := p.Stats().Chunks; got != chunks {
		t.Fatalf("Chunks = %d, want %d", got, chunks)
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

// parkingSink is a recorder that parks inside every AppendBatch until
// the test releases it, announcing each call on entered, so a test
// holds the pipeline's consumer busy at a known point of the stream.
type parkingSink struct {
	recorder
	entered chan struct{}
	release chan struct{}
}

func newParkingSink() *parkingSink {
	return &parkingSink{
		entered: make(chan struct{}, 2*trace.DefaultPipeDepth),
		release: make(chan struct{}),
	}
}

func (s *parkingSink) AppendBatch(ms []trace.Miss) {
	s.entered <- struct{}{}
	<-s.release
	s.recorder.AppendBatch(ms)
}

// settledStall waits for stall() to rise above from, then lets the
// pipeline settle for 50 ms before reading it again, so a wait counted
// twice has time to show. It reports a counter that never moves as an
// error rather than a fatal one, so the caller still releases the
// pipeline's goroutines.
func settledStall(t *testing.T, from uint64, stall func() uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for stall() <= from {
		if time.Now().After(deadline) {
			t.Errorf("stall counter stayed at %d", from)
			return from
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	return stall()
}

// TestPipelinedConsumerStallCountedOnce: a second chunk lands while the
// consumer is busy with the first, so the consumer takes it without
// waiting; after it, the consumer finds the channel empty and waits
// once, which must raise ConsumerStalls by exactly one. The close that
// ends the test also unblocks that waiting consumer.
func TestPipelinedConsumerStallCountedOnce(t *testing.T) {
	sink := newParkingSink()
	p := trace.NewPipelined(sink)
	chunk := sinktest.Misses(trace.PipeChunk, 4)
	p.AppendBatch(chunk)
	<-sink.entered
	before := p.Stats().ConsumerStalls
	p.AppendBatch(chunk)
	sink.release <- struct{}{} // first chunk done; the second is queued
	<-sink.entered
	sink.release <- struct{}{} // second chunk done; the channel is empty
	if got := settledStall(t, before, func() uint64 { return p.Stats().ConsumerStalls }); got != before+1 {
		t.Errorf("one consumer wait raised ConsumerStalls by %d, want 1", got-before)
	}
	close(sink.release)
	p.Close()
}

// TestPipelinedProducerStallCountedOnce: with the consumer parked in
// the first chunk, DefaultPipeDepth+1 more chunks are sent; the last
// finds the channel full and waits, which must read ProducerStalls = 1.
// It is also the backpressure check: the producer stays blocked while
// the channel is full, and resumes once the consumer drains.
func TestPipelinedProducerStallCountedOnce(t *testing.T) {
	sink := newParkingSink()
	p := trace.NewPipelined(sink)
	chunk := sinktest.Misses(trace.PipeChunk, 4)
	p.AppendBatch(chunk)
	<-sink.entered
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for range trace.DefaultPipeDepth + 1 {
			p.AppendBatch(chunk)
		}
	}()
	if got := settledStall(t, 0, func() uint64 { return p.Stats().ProducerStalls }); got != 1 {
		t.Errorf("one producer wait read ProducerStalls = %d, want 1", got)
	}
	select {
	case <-sent:
		t.Error("producer sent past a full channel")
	default:
	}
	close(sink.release)
	<-sent
	p.Close()
	if got := p.Stats().Chunks; got != trace.DefaultPipeDepth+2 {
		t.Errorf("Chunks = %d, want %d", got, trace.DefaultPipeDepth+2)
	}
}
