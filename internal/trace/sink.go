package trace

// Header carries the trace-level totals a producer folds into its sinks
// when a stream of misses ends: how many records were emitted, how many
// instructions retired across all CPUs while they were collected, and the
// processor count — everything a consumer needs to express rates (MPKI)
// without having materialized the records.
type Header struct {
	Misses       int
	Instructions uint64
	CPUs         int
}

// MPKI returns misses per 1000 instructions for the emitted window.
func (h Header) MPKI() float64 {
	if h.Instructions == 0 {
		return 0
	}
	return float64(h.Misses) * 1000 / float64(h.Instructions)
}

// Sink is a push-based consumer of classified misses, delivered in
// chunks. Producers call AppendBatch with consecutive runs of records in
// trace order, then Finish exactly once at end of stream with the
// stream's header. Every producer delivers chunks: the simulator through
// its Gate (PipeChunk records a chunk), the wire decoder one decoded
// frame a chunk, the Pipelined adapter one channel chunk a chunk. Sinks are
// the composition point of the streaming data path: a *Trace is the
// materializing Sink, analysis sessions are incremental Sinks, and Tee
// fans one stream out to several consumers.
//
// The chunk is only borrowed: the callee must not retain ms (or any
// subslice) after returning, because producers reuse the backing array
// for the next chunk. A chunk may be empty. How a stream is split into
// chunks carries no meaning; any split is the same stream.
//
// A Sink is driven from a single goroutine; implementations need no
// internal locking.
type Sink interface {
	// AppendBatch consumes ms[0], ms[1], ... in order.
	AppendBatch(ms []Miss)
	// Finish marks end of stream and delivers the stream's header.
	Finish(h Header)
}

// AppendBatch implements Sink: one bulk append per chunk.
func (t *Trace) AppendBatch(ms []Miss) { t.Misses = append(t.Misses, ms...) }

// Finish implements Sink, folding the header into the Instructions and
// CPUs fields.
func (t *Trace) Finish(h Header) {
	t.Instructions = h.Instructions
	t.CPUs = h.CPUs
}

// Tee is a Sink combinator that forwards every chunk (and the final
// header) to each of its elements in order.
type Tee []Sink

// AppendBatch implements Sink.
func (t Tee) AppendBatch(ms []Miss) {
	for _, s := range t {
		s.AppendBatch(ms)
	}
}

// Finish implements Sink.
func (t Tee) Finish(h Header) {
	for _, s := range t {
		s.Finish(h)
	}
}

// Discard is a Sink that drops everything; producers that require a
// non-nil sink can be pointed at it.
type Discard struct{}

// AppendBatch implements Sink.
func (Discard) AppendBatch([]Miss) {}

// Finish implements Sink.
func (Discard) Finish(Header) {}

var (
	_ Sink = (*Trace)(nil)
	_ Sink = Tee(nil)
	_ Sink = Discard{}
)
