package trace_test

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// chunkRecorder records every chunk's length next to the records.
type chunkRecorder struct {
	recorder
	sizes []int
}

func (r *chunkRecorder) AppendBatch(ms []trace.Miss) {
	r.sizes = append(r.sizes, len(ms))
	r.recorder.AppendBatch(ms)
}

// TestGate pins the simulator's buffering adapter: every record is
// counted, records before Open are dropped, the sink gets PipeChunk-record
// chunks and then the partial chunk, and Finish carries the records
// handed over since Open.
func TestGate(t *testing.T) {
	const warm, kept = 1000, 2*trace.PipeChunk + 17
	ms := sinktest.Misses(warm+kept, 4)

	var g trace.Gate
	g.Finish(7, 4) // closed: no stream to end, and no sink to panic on
	for _, m := range ms[:warm] {
		g.Append(m)
	}
	r := &chunkRecorder{}
	g.Open(r)
	for _, m := range ms[warm:] {
		g.Append(m)
	}
	if g.Total() != warm+kept {
		t.Errorf("Total = %d, want %d", g.Total(), warm+kept)
	}
	if want := []int{trace.PipeChunk, trace.PipeChunk}; !reflect.DeepEqual(r.sizes, want) {
		t.Errorf("chunks before Finish = %v, want %v", r.sizes, want)
	}
	g.Finish(12345, 4)
	if want := []int{trace.PipeChunk, trace.PipeChunk, 17}; !reflect.DeepEqual(r.sizes, want) {
		t.Errorf("chunks = %v, want %v", r.sizes, want)
	}
	if !reflect.DeepEqual(r.misses, ms[warm:]) {
		t.Errorf("sink got %d records, want the %d after Open in order", len(r.misses), kept)
	}
	want := []trace.Header{{Misses: kept, Instructions: 12345, CPUs: 4}}
	if !reflect.DeepEqual(r.finishes, want) {
		t.Errorf("finishes = %+v, want %+v", r.finishes, want)
	}
}
