package trace

import (
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// PipeChunk is the Pipelined adapter's records-per-chunk granularity:
// large enough that the per-chunk handoff (one ring slot, at worst one
// park/unpark pair) is noise against the ~milliseconds of simulation or
// analysis a chunk represents, small enough that a chunk is a few tens
// of KB and the consumer's lag behind the producer stays bounded and
// fine-grained.
const PipeChunk = 4096

// DefaultPipeDepth is every Pipelined's ring bound in chunks: enough
// in-flight chunks to ride out consumer scheduling hiccups, at O(100 KB)
// of buffered records.
const DefaultPipeDepth = 8

// pipeItem is one ring entry: a chunk of records, or the end-of-stream
// header.
type pipeItem struct {
	ms  []Miss
	fin bool
	h   Header
}

// Pipelined is a Sink adapter that moves a stream's consumption onto
// its own goroutine: AppendBatch copies records into bounded chunks and
// hands full chunks to the consumer over an SPSC ring (par.SPSC), so the
// producer — a simulator's emission path — overlaps
// the downstream sink's work — an analysis session's SEQUITUR append —
// on another core. The wrapped sink sees exactly the stream the
// producer emitted: same records, same order, one Finish; results are
// byte-identical to driving it inline, because the pipeline reorders
// nothing and the downstream sink still runs single-goroutine.
//
// Memory is bounded by DefaultPipeDepth chunks in the ring plus one
// being filled and one being consumed; a slow consumer backpressures the
// producer through a blocking ring push. Consumed chunks recycle through
// a free list, so a steady-state pipeline allocates nothing per chunk.
//
// Lifecycle: drive AppendBatch/Finish as usual from one producer
// goroutine, then call Close exactly once — after Finish for
// a completed stream, or in place of it to tear down a cancelled one —
// and the call returns when the consumer goroutine has drained the
// ring and exited. Only after Close returns may the wrapped sink's
// results be collected (e.g. tempstream.Session.Result).
//
// The consumer is a plain goroutine, deliberately not a worker-pool
// task: the producer blocks in Push while the ring is full, so parking
// the consumer behind a pool slot the producer's own task occupies
// would deadlock a one-worker pool.
type Pipelined struct {
	dst   Sink
	ring  *par.SPSC[pipeItem]
	free  chan []Miss
	chunk []Miss
	done  chan struct{}

	finished bool
	closed   bool

	chunks         atomic.Uint64 // chunks pushed through the ring
	freelistMiss   atomic.Uint64 // newChunk allocations (free list empty)
	consumerBusyNs atomic.Int64  // time the consumer spent inside dst
}

// PipeStats is one pipeline's tracing snapshot: where its wall-clock
// slack went. ProducerStalls counts parks on a full ring (the consumer
// — analysis — was the bottleneck); ConsumerStalls counts parks on an
// empty ring (the producer — simulation — was). Chunks and
// FreelistMisses size the traffic and the recycling hit rate;
// ConsumerBusySeconds is time actually spent inside the wrapped sink,
// the denominator that turns stall counts into utilization.
type PipeStats struct {
	ProducerStalls      uint64  `json:"producer_stalls"`
	ConsumerStalls      uint64  `json:"consumer_stalls"`
	Chunks              uint64  `json:"chunks"`
	FreelistMisses      uint64  `json:"freelist_misses"`
	ConsumerBusySeconds float64 `json:"consumer_busy_seconds"`
}

// Stats returns the pipeline's counters so far. Safe to call from any
// goroutine at any time; for a quiesced final value call after Close.
func (p *Pipelined) Stats() PipeStats {
	prod, cons := p.ring.Stalls()
	return PipeStats{
		ProducerStalls:      prod,
		ConsumerStalls:      cons,
		Chunks:              p.chunks.Load(),
		FreelistMisses:      p.freelistMiss.Load(),
		ConsumerBusySeconds: float64(p.consumerBusyNs.Load()) / 1e9,
	}
}

// Add accumulates other into s (for totals across a run's pipelines).
func (s *PipeStats) Add(other PipeStats) {
	s.ProducerStalls += other.ProducerStalls
	s.ConsumerStalls += other.ConsumerStalls
	s.Chunks += other.Chunks
	s.FreelistMisses += other.FreelistMisses
	s.ConsumerBusySeconds += other.ConsumerBusySeconds
}

var _ Sink = (*Pipelined)(nil)

// NewPipelined starts a pipeline in front of dst with a ring bound of
// DefaultPipeDepth chunks and spawns its consumer goroutine. dst must
// not be driven by anyone else until Close returns.
func NewPipelined(dst Sink) *Pipelined {
	p := &Pipelined{
		dst:  dst,
		ring: par.NewSPSC[pipeItem](DefaultPipeDepth),
		// Ring slots + the chunk being filled + the one being consumed
		// can all hold distinct buffers; capacity for all of them keeps
		// the steady state allocation-free.
		free: make(chan []Miss, DefaultPipeDepth+2),
		done: make(chan struct{}),
	}
	p.chunk = p.newChunk()
	go p.consume()
	return p
}

// consume drains the ring into dst until the ring closes.
func (p *Pipelined) consume() {
	defer close(p.done)
	for {
		it, ok := p.ring.Pop()
		if !ok {
			return
		}
		start := time.Now()
		if it.fin {
			p.dst.Finish(it.h)
			p.consumerBusyNs.Add(int64(time.Since(start)))
			continue
		}
		p.dst.AppendBatch(it.ms)
		p.consumerBusyNs.Add(int64(time.Since(start)))
		select {
		case p.free <- it.ms[:0]:
		default:
		}
	}
}

// newChunk takes a recycled buffer from the free list or allocates one.
func (p *Pipelined) newChunk() []Miss {
	select {
	case c := <-p.free:
		return c
	default:
		p.freelistMiss.Add(1)
		return make([]Miss, 0, PipeChunk)
	}
}

// push hands the current chunk to the consumer and starts a fresh one.
func (p *Pipelined) push() {
	if len(p.chunk) == 0 {
		return
	}
	p.ring.Push(pipeItem{ms: p.chunk})
	p.chunks.Add(1)
	p.chunk = p.newChunk()
}

// AppendBatch implements Sink: the records are copied into the
// pipeline's own chunks (the Sink contract lets the caller reuse ms
// after return), with a ring handoff every PipeChunk records.
func (p *Pipelined) AppendBatch(ms []Miss) {
	for len(ms) > 0 {
		n := min(cap(p.chunk)-len(p.chunk), len(ms))
		p.chunk = append(p.chunk, ms[:n]...)
		ms = ms[n:]
		if len(p.chunk) == cap(p.chunk) {
			p.push()
		}
	}
}

// Finish implements Sink: the remaining records and the header travel
// through the ring, so the wrapped sink's Finish runs on the consumer
// goroutine after every record — then the ring closes. Call Close to
// wait for the drain.
func (p *Pipelined) Finish(h Header) {
	if p.finished {
		return
	}
	p.finished = true
	p.push()
	p.ring.Push(pipeItem{fin: true, h: h})
	p.ring.Close()
}

// Close tears the pipeline down and waits for the consumer goroutine
// to exit. After a Finish, every record and the header have reached the
// wrapped sink when Close returns; without one (a cancelled stream),
// the records pushed so far are drained and the sink sees no Finish —
// exactly the contract a cancelled RunStreamContext has with its sinks.
// Close is idempotent; the error return is always nil (it exists so
// teardown paths can defer it like an io.Closer).
func (p *Pipelined) Close() error {
	if !p.closed {
		p.closed = true
		p.ring.Close()
		<-p.done
	}
	return nil
}
