package tempstream

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// StreamOptions tunes the streaming consumers of a Session.
type StreamOptions struct {
	// Analysis tunes the per-context stream analyses (window size, reuse
	// truncation). The zero value matches the package defaults.
	Analysis core.Options
	// Prefetch, when non-nil, additionally evaluates a temporal-stream
	// prefetcher over each context's miss stream as it is produced; the
	// counters land in ContextResult.Prefetch.
	Prefetch *prefetch.Config
	// KeepTraces materializes the per-context traces, costing O(trace)
	// memory again. Off by default: streaming results carry only headers
	// and analyses.
	KeepTraces bool
}

// streamChunk bounds the Session's batching buffer (misses). Feeding the
// analyzer in bursts rather than per record keeps the grammar's tables hot
// across consecutive symbols instead of competing with the simulator's
// memory traffic on every miss; 32k records is 512 KB — still O(1) per
// context, far below any analysis window.
const streamChunk = 32768

// ErrSessionAborted is returned by Session.Close when the session is
// closed before its stream finished: the consumers' partial state was
// discarded, so no result was (or can be) produced.
var ErrSessionAborted = errors.New("tempstream: session closed before its stream finished")

// sessionState tracks where a Session is in its
// open → finished → closed lifecycle, so misuse fails with a defined
// panic instead of a nil-pointer dereference on the pooled analyzer.
type sessionState uint8

const (
	// sessionOpen: accepting Append; Finish has not arrived.
	sessionOpen sessionState = iota
	// sessionFinished: the stream ended; Result may be called once.
	sessionFinished
	// sessionClosed: the pooled analyzer has been returned (by Result or
	// Close); every further call except Close is misuse.
	sessionClosed
)

// Session is the streaming consumer of one classified miss stream: a
// trace.Sink that tees each record into a pooled incremental analyzer, an
// optional prefetcher evaluation, and an optional materializing trace,
// amortizing the per-record work over bounded chunks. With a prefetcher
// attached, each chunk's evaluation runs on its own goroutine alongside
// the analyzer feed and joins before the chunk returns: the two are
// independent state machines that each see the chunk in record order,
// so the fork reorders nothing, and the caller still drives a strictly
// serial Sink. It is the shared entry point of every streaming consumer
// in the system: Runner.Run drives one Session per analysis context, and
// the tsserved ingest daemon binds one to each network session
// (internal/server), so a stream fed over the wire lands in exactly the
// machinery an in-process collection uses.
//
// Peak memory is O(window): once the analyzer's window is full and no
// other consumer is attached, further records are dropped in O(1) with no
// allocation. A Session is driven from one goroutine (the Sink contract)
// through a strict lifecycle: Append zero or more times, Finish exactly
// once, then Result exactly once to collect the analyses and return the
// pooled analyzer — or Close at any point to discard a partially-fed
// session (e.g. a cancelled simulation or a network stream that errored
// mid-flight). Calls outside that order panic with a "tempstream:"
// message naming the violation, rather than corrupting or dereferencing
// the already-returned analyzer.
type Session struct {
	chunk []trace.Miss
	// inert is set once every consumer is saturated (analysis window full,
	// no prefetcher, no kept trace): the remaining records need no work at
	// all, exactly as a batch analysis' truncation never reads them.
	inert  bool
	state  sessionState
	an     *core.Analyzer
	ev     *prefetch.Evaluator
	tr     *trace.Trace
	header trace.Header
	// evDone joins the evaluator's per-chunk goroutine: capacity 1 and
	// reused across chunks, so the fork allocates nothing per chunk. Set
	// exactly when ev is.
	evDone chan struct{}
	// busyNs accrues wall-clock spent inside consume — the session's
	// analyze time, as distinct from the simulate time of whoever drives
	// it. Plain field: a Session is single-goroutine by contract, and
	// readers (BusySeconds) are documented to run after the drive.
	busyNs int64
}

var _ trace.BatchSink = (*Session)(nil)

// NewSession prepares the consumers for one miss stream of a
// cpus-processor machine; expect is the anticipated window length, used
// purely to presize storage (0 is fine: storage grows on demand).
func NewSession(cpus, expect int, opts StreamOptions) *Session {
	s := &Session{
		chunk: make([]trace.Miss, 0, streamChunk),
		an:    getAnalyzer(),
	}
	s.an.Begin(cpus, opts.Analysis)
	s.an.Grow(expect)
	if opts.Prefetch != nil {
		s.ev = prefetch.NewEvaluator(*opts.Prefetch)
		s.evDone = make(chan struct{}, 1)
	}
	if opts.KeepTraces {
		s.tr = &trace.Trace{}
		s.tr.Grow(expect)
	}
	return s
}

// Append implements trace.Sink: one bounds-checked store per record, with
// the consumers run chunk-at-a-time from flush. Appending to a finished
// or closed Session panics: the record would feed an analyzer whose
// result is already sealed (or already back in the pool).
func (s *Session) Append(m trace.Miss) {
	if s.state != sessionOpen {
		panic("tempstream: Session.Append after Finish or Close (the Sink contract allows appends only before the single Finish)")
	}
	if s.inert {
		return
	}
	s.chunk = append(s.chunk, m)
	if len(s.chunk) == cap(s.chunk) {
		s.flush()
	}
}

// flush drains the chunk buffer through consume.
func (s *Session) flush() {
	s.consume(s.chunk)
	s.chunk = s.chunk[:0]
}

// consume runs every consumer over ms in record order — the shared path
// behind Append's chunk buffer and AppendBatch's direct delivery. ms is
// only borrowed (each consumer copies what it keeps). The prefetcher
// evaluation, when attached, runs on its own goroutine concurrently with
// the analyzer feed — both read ms, neither writes it — and consume
// joins before returning.
func (s *Session) consume(ms []trace.Miss) {
	start := time.Now()
	defer func() { s.busyNs += int64(time.Since(start)) }()
	if s.ev != nil && len(ms) > 0 {
		go func() {
			for i := range ms {
				s.ev.Step(ms[i])
			}
			s.evDone <- struct{}{}
		}()
		s.an.FeedAll(ms)
		<-s.evDone
	} else {
		s.an.FeedAll(ms)
	}
	if s.tr != nil {
		s.tr.Misses = append(s.tr.Misses, ms...)
	}
	s.inert = s.an.Full() && s.ev == nil && s.tr == nil
}

// batchDirect is the batch size from which AppendBatch bypasses the
// chunk buffer: a batch this large already amortizes the per-chunk
// dispatch, so buffering it again would only add a copy. Matches the
// wire decoder's frame granularity.
const batchDirect = 4096

// AppendBatch implements trace.BatchSink: small batches land in the
// same chunk buffer Append fills (so mixed drives chunk identically);
// batches of at least batchDirect records flush the buffer and feed the
// consumers directly, skipping the copy — the decoded-frame fast path
// of the ingest server. Ordering across mixed Append/AppendBatch calls
// is exactly delivery order, and the same lifecycle panics apply.
func (s *Session) AppendBatch(ms []trace.Miss) {
	if s.state != sessionOpen {
		panic("tempstream: Session.Append after Finish or Close (the Sink contract allows appends only before the single Finish)")
	}
	if s.inert || len(ms) == 0 {
		return
	}
	if len(ms) >= batchDirect {
		s.flush() // buffered records first: order is delivery order
		s.consume(ms)
		return
	}
	for len(ms) > 0 && !s.inert {
		n := min(cap(s.chunk)-len(s.chunk), len(ms))
		s.chunk = append(s.chunk, ms[:n]...)
		ms = ms[n:]
		if len(s.chunk) == cap(s.chunk) {
			s.flush()
		}
	}
}

// Finish implements trace.Sink, sealing the stream with its header.
// Finishing twice (or after Close) panics.
func (s *Session) Finish(h trace.Header) {
	if s.state != sessionOpen {
		panic("tempstream: Session.Finish called twice (the Sink contract delivers exactly one Finish)")
	}
	s.flush()
	s.header = h
	if s.tr != nil {
		s.tr.Finish(h)
	}
	s.state = sessionFinished
}

// Result completes the session's analyses — the derivation walk and
// reuse-distance sweep run here — and returns the pooled analyzer. st may
// be nil when no symbol table accompanies the stream (network sessions);
// category attribution is then unavailable on the result. Result must be
// called exactly once, after Finish; calling it early, twice, or after
// Close panics.
func (s *Session) Result(st *trace.SymbolTable) *ContextResult {
	switch s.state {
	case sessionOpen:
		panic("tempstream: Session.Result before Finish (the stream's header has not been folded)")
	case sessionClosed:
		panic("tempstream: Session.Result called twice or after Close (the pooled analyzer is already returned)")
	}
	cr := &ContextResult{
		Trace:    s.tr,
		Header:   s.header,
		Analysis: s.an.Finish(),
		SymTab:   st,
	}
	putAnalyzer(s.an)
	s.an = nil
	s.state = sessionClosed
	if s.ev != nil {
		r := s.ev.Result()
		cr.Prefetch = &r
	}
	return cr
}

// Close releases the session without computing results, returning the
// pooled analyzer to the pool. It is the error-path counterpart of
// Result — a cancelled simulation or a network stream that died
// mid-flight closes its sessions — and the only Session method that is
// safe to call in any state: closing an already-closed (or Result-ed)
// session is a no-op. Close reports ErrSessionAborted when it discarded
// an unfinished stream, and nil when the session had already completed
// its lifecycle or had finished its stream without a Result call.
func (s *Session) Close() error {
	if s.an != nil {
		putAnalyzer(s.an)
		s.an = nil
	}
	aborted := s.state == sessionOpen
	s.state = sessionClosed
	if aborted {
		return ErrSessionAborted
	}
	return nil
}

// BusySeconds reports wall-clock spent inside the session's consumers
// (analyzer feed, prefetcher, trace materialization) so far — the
// "analyze" side of a run's simulate/analyze split. Read it from the
// driving goroutine, or after the drive has quiesced (after Finish, or
// after a wrapping Pipelined's Close).
func (s *Session) BusySeconds() float64 { return float64(s.busyNs) / 1e9 }
