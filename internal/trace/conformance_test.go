package trace_test

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// recorder is the reference observable sink.
type recorder struct {
	misses   []trace.Miss
	finishes []trace.Header
}

// AppendBatch snapshots the borrowed chunk at once (the harness
// clobbers it after the call).
func (r *recorder) AppendBatch(ms []trace.Miss) { r.misses = append(r.misses, ms...) }
func (r *recorder) Finish(h trace.Header)       { r.finishes = append(r.finishes, h) }

func (r *recorder) observed() (sinktest.Observed, bool) {
	return sinktest.Observed{Misses: r.misses, Finishes: r.finishes}, true
}

// traceObserved reports what a fresh *Trace consumed. A Trace cannot
// distinguish zero Finishes from one; the header fold is the observable.
// Misses order is exact.
func traceObserved(tr *trace.Trace) (sinktest.Observed, bool) {
	finishes := []trace.Header{{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs}}
	return sinktest.Observed{Misses: tr.Misses, Finishes: finishes}, true
}

// TestSinkConformance applies the shared harness to the trace package's
// own Sink implementations: the materializing *Trace, the Tee combinator
// (every branch must see the full ordered stream), and the blind Discard.
func TestSinkConformance(t *testing.T) {
	sinktest.Run(t, "Trace", 5000, 4, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		tr := &trace.Trace{}
		return tr, func() (sinktest.Observed, bool) { return traceObserved(tr) }
	})

	sinktest.Run(t, "Tee", 5000, 4, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		a, b := &recorder{}, &recorder{}
		return trace.Tee{a, b}, func() (sinktest.Observed, bool) {
			// Both branches must agree; check b against a, report a.
			if !reflect.DeepEqual(a, b) {
				t.Errorf("tee branches diverge: %d/%d misses, %d/%d finishes",
					len(a.misses), len(b.misses), len(a.finishes), len(b.finishes))
			}
			return a.observed()
		}
	})

	sinktest.Run(t, "Discard", 5000, 4, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		return trace.Discard{}, nil
	})
}

// gateFed hands every record of the harness's chunks to a Gate open on
// the sink under test, so that sink is fed as the simulator feeds it:
// PipeChunk-record chunks out of the Gate's reused buffer, the partial
// chunk, then the Gate's own Finish header.
type gateFed struct{ g *trace.Gate }

func throughGate(s trace.Sink) gateFed {
	g := &trace.Gate{}
	g.Open(s)
	return gateFed{g}
}

func (f gateFed) AppendBatch(ms []trace.Miss) {
	for _, m := range ms {
		f.g.Append(m)
	}
}

func (f gateFed) Finish(h trace.Header) { f.g.Finish(h.Instructions, h.CPUs) }

// TestBatchSinkConformance applies the harness to the trace package's
// sinks behind a Gate, over a stream of two full chunks and a partial
// one: the materializing *Trace, a Tee over a *Trace and a recorder
// (both branches must see the identical stream), and the blind Discard.
// The header the Gate builds from its own count must be the driven one.
func TestBatchSinkConformance(t *testing.T) {
	const n = 2*trace.PipeChunk + 17
	sinktest.Run(t, "Trace", n, 4, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		tr := &trace.Trace{}
		return throughGate(tr), func() (sinktest.Observed, bool) { return traceObserved(tr) }
	})

	sinktest.Run(t, "Tee", n, 4, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		tr, r := &trace.Trace{}, &recorder{}
		return throughGate(trace.Tee{tr, r}), func() (sinktest.Observed, bool) {
			got, _ := traceObserved(tr)
			want, _ := r.observed()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tee branches diverge: %d/%d misses, %d/%d finishes",
					len(got.Misses), len(want.Misses), len(got.Finishes), len(want.Finishes))
			}
			return want, true
		}
	})

	sinktest.Run(t, "Discard", n, 4, func() (trace.Sink, func() (sinktest.Observed, bool)) {
		return throughGate(trace.Discard{}), nil
	})
}
