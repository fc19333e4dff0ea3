package trace

// Gate is the simulator's one buffering adapter: a machine emits each
// classified miss into a Gate with a direct call, and the Gate turns that
// record-at-a-time emission into the chunked stream every Sink consumes.
//
// A Gate counts every record it is handed, open or closed, so a driver's
// stop predicate polls one int (Total). While closed it drops records:
// the workload runner keeps its gates closed through construction and
// warm-up, so that prefix is never materialized anywhere. While open it
// buffers records and hands its sink PipeChunk-record chunks; Flush hands
// over a partial chunk, and Finish flushes before it ends the sink's
// stream.
//
// The zero Gate is closed. A Gate is driven from one goroutine.
type Gate struct {
	sink  Sink
	buf   []Miss
	total int // records seen since the gate was made
	kept  int // records handed to the sink since Open
}

// Open starts forwarding records to s. Opening with a nil s leaves the
// gate closed.
func (g *Gate) Open(s Sink) { g.sink = s }

// Closed reports whether the gate drops what it is handed. A producer
// that sees a closed gate may skip building the record and call Count
// instead of Append: both count the record, and neither keeps it.
func (g *Gate) Closed() bool { return g.sink == nil }

// Count counts one record without handing it over: Append's effect on a
// closed gate.
func (g *Gate) Count() { g.total++ }

// Append counts m and, while the gate is open, buffers it for the sink.
func (g *Gate) Append(m Miss) {
	g.total++
	if g.sink == nil {
		return
	}
	g.buf = append(g.buf, m)
	if len(g.buf) == PipeChunk {
		g.Flush()
	}
}

// Flush hands the buffered records to the sink as one chunk.
func (g *Gate) Flush() {
	if len(g.buf) == 0 {
		return
	}
	g.kept += len(g.buf)
	g.sink.AppendBatch(g.buf)
	g.buf = g.buf[:0]
}

// Total returns how many records the gate has seen, open or closed.
func (g *Gate) Total() int { return g.total }

// Finish flushes the buffered records and ends an open gate's stream:
// the sink's one Finish carries the records handed over since Open and
// the given instruction and processor counts. A closed gate has no
// stream to end.
func (g *Gate) Finish(instructions uint64, cpus int) {
	if g.sink == nil {
		return
	}
	g.Flush()
	g.sink.Finish(Header{Misses: g.kept, Instructions: instructions, CPUs: cpus})
}
