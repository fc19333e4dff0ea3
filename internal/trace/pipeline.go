package trace

import (
	"sync/atomic"
	"time"
)

// PipeChunk is the Pipelined adapter's records-per-chunk granularity:
// large enough that the per-chunk handoff (one channel send and one
// receive) is noise against the ~milliseconds of simulation or analysis
// a chunk represents, small enough that a chunk is a few tens of KB and
// the consumer's lag behind the producer stays bounded and fine-grained.
const PipeChunk = 4096

// DefaultPipeDepth is every Pipelined's channel capacity in chunks:
// enough in-flight chunks to ride out consumer scheduling hiccups, at
// O(100 KB) of buffered records.
const DefaultPipeDepth = 8

// pipeItem is one channel entry: a chunk of records, or the
// end-of-stream header.
type pipeItem struct {
	ms  []Miss
	fin bool
	h   Header
}

// Pipelined is a Sink adapter that moves a stream's consumption onto
// its own goroutine: AppendBatch copies records into bounded chunks and
// hands full chunks to the consumer over a buffered channel, so the
// producer — a simulator's emission path — overlaps
// the downstream sink's work — an analysis session's SEQUITUR append —
// on another core. The wrapped sink sees exactly the stream the
// producer emitted: same records, same order, one Finish; results are
// byte-identical to driving it inline, because the pipeline reorders
// nothing and the downstream sink still runs single-goroutine.
//
// Memory is bounded by DefaultPipeDepth chunks in the channel plus one
// being filled and one being consumed; a slow consumer backpressures the
// producer through a blocking send. Consumed chunks recycle through
// a free list, so a steady-state pipeline allocates nothing per chunk.
//
// Lifecycle: drive AppendBatch/Finish as usual from one producer
// goroutine, then call Close exactly once — after Finish for
// a completed stream, or in place of it to tear down a cancelled one —
// and the call returns when the consumer goroutine has drained the
// channel and exited. Only after Close returns may the wrapped sink's
// results be collected (e.g. tempstream.Session.Result). Appending after
// Finish or Close breaks the Sink contract and panics at the next chunk
// handoff (a send on the closed channel); no caller does so.
//
// The consumer is a plain goroutine, deliberately not a worker-pool
// task: the producer blocks in its send while the channel is full, so
// parking the consumer behind a pool slot the producer's own task
// occupies would deadlock a one-worker pool.
type Pipelined struct {
	dst   Sink
	ch    chan pipeItem
	free  chan []Miss
	chunk []Miss
	done  chan struct{}
	// sealed is set once ch is closed, by Finish or by Close.
	sealed bool

	chunks         atomic.Uint64 // chunks sent to the consumer
	prodStalls     atomic.Uint64 // sends that found the channel full
	consStalls     atomic.Uint64 // receives that found the channel empty
	consumerBusyNs atomic.Int64  // time the consumer spent inside dst
}

// PipeStats is one pipeline's tracing snapshot: where its wall-clock
// slack went. ProducerStalls counts sends that found the channel full
// and waited (the consumer — analysis — was the bottleneck);
// ConsumerStalls counts receives that found it empty and waited (the
// producer — simulation — was). Each wait counts once. Chunks sizes the
// traffic; ConsumerBusySeconds is time actually spent inside the wrapped
// sink, the denominator that turns stall counts into utilization.
type PipeStats struct {
	ProducerStalls      uint64  `json:"producer_stalls"`
	ConsumerStalls      uint64  `json:"consumer_stalls"`
	Chunks              uint64  `json:"chunks"`
	ConsumerBusySeconds float64 `json:"consumer_busy_seconds"`
}

// Stats returns the pipeline's counters so far. Safe to call from any
// goroutine at any time; for a quiesced final value call after Close.
func (p *Pipelined) Stats() PipeStats {
	return PipeStats{
		ProducerStalls:      p.prodStalls.Load(),
		ConsumerStalls:      p.consStalls.Load(),
		Chunks:              p.chunks.Load(),
		ConsumerBusySeconds: float64(p.consumerBusyNs.Load()) / 1e9,
	}
}

// Add accumulates other into s (for totals across a run's pipelines).
func (s *PipeStats) Add(other PipeStats) {
	s.ProducerStalls += other.ProducerStalls
	s.ConsumerStalls += other.ConsumerStalls
	s.Chunks += other.Chunks
	s.ConsumerBusySeconds += other.ConsumerBusySeconds
}

var _ Sink = (*Pipelined)(nil)

// NewPipelined starts a pipeline in front of dst with a channel of
// DefaultPipeDepth chunks and spawns its consumer goroutine. dst must
// not be driven by anyone else until Close returns.
func NewPipelined(dst Sink) *Pipelined {
	p := &Pipelined{
		dst: dst,
		ch:  make(chan pipeItem, DefaultPipeDepth),
		// Channel slots + the chunk being filled + the one being consumed
		// can all hold distinct buffers; capacity for all of them keeps
		// the steady state allocation-free.
		free: make(chan []Miss, DefaultPipeDepth+2),
		done: make(chan struct{}),
	}
	p.chunk = p.newChunk()
	go p.consume()
	return p
}

// consume drains the channel into dst until it closes. A receive that
// finds the channel empty counts one consumer stall, then waits.
func (p *Pipelined) consume() {
	defer close(p.done)
	for {
		var it pipeItem
		var ok bool
		select {
		case it, ok = <-p.ch:
		default:
			p.consStalls.Add(1)
			it, ok = <-p.ch
		}
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
		return make([]Miss, 0, PipeChunk)
	}
}

// send hands an item to the consumer. A send that finds the channel full
// counts one producer stall, then waits.
func (p *Pipelined) send(it pipeItem) {
	select {
	case p.ch <- it:
	default:
		p.prodStalls.Add(1)
		p.ch <- it
	}
}

// push hands the current chunk to the consumer and starts a fresh one.
func (p *Pipelined) push() {
	if len(p.chunk) == 0 {
		return
	}
	p.send(pipeItem{ms: p.chunk})
	p.chunks.Add(1)
	p.chunk = p.newChunk()
}

// AppendBatch implements Sink: the records are copied into the
// pipeline's own chunks (the Sink contract lets the caller reuse ms
// after return), with a channel handoff every PipeChunk records.
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

// Finish implements Sink: the remaining records and then the header
// travel through the channel, so the wrapped sink's Finish runs on the
// consumer goroutine after every record — then the channel closes. Call
// Close to wait for the drain.
func (p *Pipelined) Finish(h Header) {
	if p.sealed {
		return
	}
	p.push()
	p.send(pipeItem{fin: true, h: h})
	p.sealed = true
	close(p.ch)
}

// Close tears the pipeline down and waits for the consumer goroutine
// to exit. After a Finish, every record and the header have reached the
// wrapped sink when Close returns; without one (a cancelled stream),
// the chunks sent so far are drained and the sink sees no Finish —
// exactly the contract a cancelled RunStreamContext has with its sinks.
// Close runs on the producer goroutine, so it never races a send. It is
// idempotent; the error return is always nil (it exists so teardown
// paths can defer it like an io.Closer).
func (p *Pipelined) Close() error {
	if !p.sealed {
		p.sealed = true
		close(p.ch)
	}
	<-p.done
	return nil
}
