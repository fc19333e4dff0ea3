package tempstream

import (
	"cmp"
	"errors"

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
	// memory again (the analysis window is the kept trace's prefix, not a
	// second copy). Off by default: streaming results carry only headers
	// and analyses.
	KeepTraces bool
}

// ErrSessionAborted is returned by Session.Close when the session is
// closed before its stream finished: the consumers' partial state was
// discarded, so no result was (or can be) produced.
var ErrSessionAborted = errors.New("tempstream: session closed before its stream finished")

// sessionState tracks where a Session is in its
// open → finished → closed lifecycle, so misuse fails with a defined
// panic instead of a nil-pointer dereference on the pooled analyzer.
type sessionState uint8

const (
	// sessionOpen: accepting AppendBatch; Finish has not arrived.
	sessionOpen sessionState = iota
	// sessionFinished: the stream ended; Result may be called once.
	sessionFinished
	// sessionClosed: the pooled analyzer has been returned (by Result or
	// Close); every further call except Close is misuse.
	sessionClosed
)

// Session is the streaming consumer of one classified miss stream: a
// trace.Sink that runs each chunk through a pooled analyzer's online
// passes and an optional prefetcher evaluation, and holds the stream's
// one copy of its records: the analysis window, or with KeepTraces the
// whole stream, whose prefix is the window.
// Every producer already delivers chunks (the simulator's gate, the wire
// decoder's frames, the pipeline's channel), so the Session feeds its
// consumers straight from the borrowed chunk. With a prefetcher
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
// through a strict lifecycle: AppendBatch zero or more times, Finish
// exactly once, then Result exactly once to collect the analyses and
// return the pooled analyzer — or Close at any point to discard a
// partially-fed session (e.g. a cancelled simulation or a network stream
// that errored mid-flight). Calls outside that order panic with a
// "tempstream:" message naming the violation, rather than corrupting or
// dereferencing the already-returned analyzer.
type Session struct {
	// inert is set once every consumer is saturated (analysis window full,
	// no prefetcher, no kept trace): the remaining records need no work at
	// all, exactly as a batch analysis' truncation never reads them.
	inert bool
	keep  bool
	state sessionState
	an    *core.Analyzer
	ev    *prefetch.Evaluator
	// tr holds the stream's only copy of its records. Without keep it
	// holds the window, the misses the analyzer took. With keep, Result
	// fills it once, at its final size, from kept, so the window is its
	// prefix and it is handed out as the kept trace.
	tr *trace.Trace
	// kept holds, with keep, every record of the stream so far: the first
	// chunk holds the expected length, each later one PipeChunk records,
	// so a stream that outgrows its estimate is never recopied to grow.
	kept   [][]trace.Miss
	window int
	header trace.Header
	// evDone joins the evaluator's per-chunk goroutine: capacity 1 and
	// reused across chunks, so the fork allocates nothing per chunk. Set
	// exactly when ev is.
	evDone chan struct{}
}

var _ trace.Sink = (*Session)(nil)

// NewSession prepares the consumers for one miss stream of a
// cpus-processor machine; expect is the anticipated stream length, used
// purely to presize storage (clamped to the analysis window unless the
// trace is kept; 0 is fine: storage grows on demand).
func NewSession(cpus, expect int, opts StreamOptions) *Session {
	s := &Session{an: getAnalyzer(), keep: opts.KeepTraces, tr: &trace.Trace{}}
	s.an.Begin(cpus, opts.Analysis)
	if n := s.an.Grow(expect); s.keep {
		s.kept = [][]trace.Miss{make([]trace.Miss, 0, cmp.Or(expect, trace.PipeChunk))}
	} else {
		s.tr.Grow(n)
	}
	if opts.Prefetch != nil {
		s.ev = prefetch.NewEvaluator(*opts.Prefetch)
		s.evDone = make(chan struct{}, 1)
	}
	return s
}

// AppendBatch implements trace.Sink: every consumer runs over ms in
// record order. ms is only borrowed (each consumer copies what it
// keeps). The prefetcher evaluation, when attached, runs on its own
// goroutine concurrently with the analyzer feed — both read ms, neither
// writes it — and joins before AppendBatch returns. Appending to a
// finished or closed Session panics: the records would feed an analyzer
// whose result is already sealed (or already back in the pool).
func (s *Session) AppendBatch(ms []trace.Miss) {
	if s.state != sessionOpen {
		panic("tempstream: Session.AppendBatch after Finish or Close (the Sink contract allows appends only before the single Finish)")
	}
	if s.inert || len(ms) == 0 {
		return
	}
	var n int
	if s.ev != nil {
		go func() {
			for i := range ms {
				s.ev.Step(ms[i])
			}
			s.evDone <- struct{}{}
		}()
		n = s.an.Observe(ms)
		<-s.evDone
	} else {
		n = s.an.Observe(ms)
	}
	s.window += n
	if s.keep {
		s.keepBatch(ms)
		return
	}
	s.inert = n < len(ms) && s.ev == nil
	s.tr.AppendBatch(ms[:n])
}

// keepBatch copies ms into the kept chunks, starting a PipeChunk-record
// chunk whenever the last one is full.
func (s *Session) keepBatch(ms []trace.Miss) {
	for len(ms) > 0 {
		last := &s.kept[len(s.kept)-1]
		if len(*last) == cap(*last) {
			s.kept = append(s.kept, make([]trace.Miss, 0, trace.PipeChunk))
			last = &s.kept[len(s.kept)-1]
		}
		n := min(len(ms), cap(*last)-len(*last))
		*last = append(*last, ms[:n]...)
		ms = ms[n:]
	}
}

// Finish implements trace.Sink, sealing the stream with its header.
// Finishing twice (or after Close) panics.
func (s *Session) Finish(h trace.Header) {
	if s.state != sessionOpen {
		panic("tempstream: Session.Finish called twice (the Sink contract delivers exactly one Finish)")
	}
	s.header = h
	s.tr.Finish(h)
	s.state = sessionFinished
}

// Result completes the session's analyses — the derivation walk and
// reuse-distance sweep run here — and returns the pooled analyzer. st may
// be nil when no symbol table accompanies the stream (network sessions);
// category attribution is then unavailable on the result. Result must be
// called exactly once, after Finish; calling it early, twice, or after
// Close panics. With KeepTraces the result's analysis window is a prefix
// of its Trace; the Session keeps a reference to neither.
func (s *Session) Result(st *trace.SymbolTable) *ContextResult {
	switch s.state {
	case sessionOpen:
		panic("tempstream: Session.Result before Finish (the stream's header has not been folded)")
	case sessionClosed:
		panic("tempstream: Session.Result called twice or after Close (the pooled analyzer is already returned)")
	}
	if s.keep {
		// A stream that fit its estimate keeps its one chunk; a longer one
		// is joined once, at its final size.
		s.tr.Misses = s.kept[0]
		if len(s.kept) > 1 {
			n := 0
			for _, c := range s.kept {
				n += len(c)
			}
			s.tr.Misses = make([]trace.Miss, 0, n)
			for _, c := range s.kept {
				s.tr.Misses = append(s.tr.Misses, c...)
			}
		}
		s.kept = nil
	}
	cr := &ContextResult{
		Header:   s.header,
		Analysis: s.an.Finish(s.tr.Misses[:s.window]),
		SymTab:   st,
	}
	if s.keep {
		cr.Trace = s.tr
	}
	s.tr = nil
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
