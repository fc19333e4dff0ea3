package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Cancellation causes inside the server's context tree: every way a
// session can be torn down early is a cause on its context, so the one
// tree replaces the ad-hoc force channel, queue timer, and deadline
// bookkeeping that used to express them separately.
var (
	// errDraining cancels the whole tree when a drain deadline expires.
	errDraining = errors.New("server draining")
	// errSlotWait expires one session's bounded wait for an analyzer slot.
	errSlotWait = errors.New("server busy")
	// errIdle cancels one session whose peer went silent between reads.
	errIdle = errors.New("idle timeout: no data from peer")
)

// Session states, as reported by Stats.
const (
	StateQueued    = "queued"    // waiting for a session slot
	StateReceiving = "receiving" // decoding the client's stream
	StateDone      = "done"
	StateFailed    = "failed"
	// StateParked: the connection died mid-stream but the session's
	// analyzer state is parked under its resume token, awaiting the
	// client's resumption within the grace window.
	StateParked = "parked"
)

// finishedTTL is how long a completed session stays visible in Stats
// before being pruned from the table.
const finishedTTL = time.Minute

// Prefetch-config ceilings: a server session never evaluates the
// idealized unbounded prefetcher (HistoryLen/BufferBlocks 0), because its
// structures would grow with the stream; requests must pin both bounds.
const (
	MaxPrefetchHistory = 1 << 20
	MaxPrefetchBuffer  = 1 << 18
)

// Config tunes a Server.
type Config struct {
	// Name identifies this backend in its Stats snapshot (and so in a
	// gateway's fleet view). Optional; defaults to empty.
	Name string
	// MaxSessions bounds how many sessions are concurrently bound to
	// analyzers; further sessions queue (the protocol's backpressure
	// reaches their producers through the unread socket). 0 means 16.
	MaxSessions int
	// MaxWindow clamps the per-session analysis window a client may
	// request (core.Options.MaxMisses), bounding per-session memory.
	// 0 means the analysis default (core.DefaultMaxMisses); the clamp is
	// always enforced.
	MaxWindow int
	// MaxQueue bounds how many sessions may simultaneously wait for a
	// slot; arrivals beyond it are shed immediately with a busy error
	// and a retry_after_ms hint instead of queueing. Explicit shedding
	// keeps overload latency bounded — without it every excess client
	// waits the full QueueTimeout just to learn the server is saturated.
	// 0 means 4*MaxSessions; negative disables the explicit shed
	// (queue waits remain bounded by QueueTimeout).
	MaxQueue int
	// QueueTimeout bounds how long a session may wait for an analyzer
	// slot before failing with a busy error. The bound matters for
	// deadlock avoidance, not just fairness: a producer multiplexing
	// several sessions (one simulation feeding off-chip and intra-chip
	// streams) can hold a slot with one session while blocked writing to
	// a queued partner — the timeout turns that cycle into a clean
	// failure. 0 means 30s.
	QueueTimeout time.Duration
	// IdleTimeout bounds the gap between a connection's reads: a peer
	// that goes silent (never sends its request, stalls mid-stream, dies
	// without FIN) errors out instead of pinning a goroutine — and, once
	// admitted, an analyzer slot — forever. 0 means 2m.
	IdleTimeout time.Duration
	// ResumeGrace is how long an interrupted resumable session's
	// analyzer state stays parked under its token awaiting resumption.
	// Parked state holds an analyzer's memory (but no session slot), so
	// the window is deliberately bounded; on expiry the state is
	// discarded and a late resume fails with resume_unknown. 0 means 30s.
	ResumeGrace time.Duration
	// RetryHint is the backoff hint (retry_after_ms) attached to busy
	// and draining responses. 0 means 500ms.
	RetryHint time.Duration
	// Archive, when non-nil, tees every accepted session's decoded
	// stream into the managed archive store: the records feed the
	// analyzer and a store.Writer side by side, and the archive commits
	// (manifest entry included) when the stream finishes cleanly. An
	// interrupted resumable session keeps its writer parked with its
	// analyzer, so the committed archive covers the whole logical
	// stream across reconnects. Archiving is best-effort by design: a
	// store failure is logged and the ingest session proceeds —
	// answering the client is the daemon's job, the warehouse only
	// rides along.
	Archive *store.Store
	// Logger receives the server's structured log events (session
	// lifecycle, parks, sheds, shutdown). nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 16
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = core.DefaultMaxMisses
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxSessions
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 30 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.ResumeGrace == 0 {
		c.ResumeGrace = 30 * time.Second
	}
	if c.RetryHint == 0 {
		c.RetryHint = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// idleConn enforces Config.IdleTimeout: every Read re-arms the deadline,
// so only a silent peer trips it, never a slow-but-flowing stream. A
// trip cancels the session's context with errIdle, folding the idle
// deadline into the same cancellation tree as the drain and queue
// bounds.
//
// idleConn is also where the server learns that a read failed because of
// its OWN teardown (the deadline it armed, or the conn close the
// context tree performed) rather than a peer fault: the raw net error
// is visible here, before the wire decoder flattens it into a message
// string. handle uses that to decide whether a session error may be
// rewritten to the cancellation cause.
type idleConn struct {
	proto.DeadlineConn
	cancel context.CancelCauseFunc
	// bytes counts every byte read off the transport (the
	// tsserved_ingest_bytes_total series); nil in tests that build bare
	// idleConns.
	bytes *obs.Counter
	// teardown is set when a Read failed due to the armed deadline or a
	// closed conn. Written and read on the session's goroutine only.
	teardown bool
}

func (c *idleConn) Read(p []byte) (int, error) {
	n, err := c.DeadlineConn.Read(p)
	if n > 0 && c.bytes != nil {
		c.bytes.Add(float64(n))
	}
	if err != nil {
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			c.teardown = true
			c.cancel(errIdle)
		case errors.Is(err, net.ErrClosed):
			c.teardown = true
		}
	}
	return n, err
}

// Server is the ingest daemon: it accepts connections, multiplexes
// bounded concurrent sessions onto the pooled streaming-analysis
// machinery, and serves live stats. Create with Listen, run with Serve,
// stop with Shutdown (graceful drain) or Close.
//
// Every session lives under one context tree rooted at baseCtx: the
// queue wait, the idle deadline, and the drain force-stop are all causes
// of cancellation on that tree, so tearing the server down is one
// CancelCause call fanning out to every connection.
type Server struct {
	cfg   Config
	ln    net.Listener
	slots chan struct{}

	baseCtx   context.Context         // root of every session's context
	cancelAll context.CancelCauseFunc // force-stop: cancels the whole tree

	mu       sync.Mutex
	sessions map[uint64]*session
	closed   bool

	// parked holds interrupted (and completed) resumable sessions under
	// their tokens for Config.ResumeGrace.
	parked *proto.Lot[*parkedSession]

	nextID        atomic.Uint64
	totalSessions atomic.Int64
	totalFailed   atomic.Int64
	totalRecords  atomic.Int64
	queued        atomic.Int64
	totalShed     atomic.Int64
	totalParked   atomic.Int64
	totalResumed  atomic.Int64
	totalExpired  atomic.Int64

	// Live connection-handler count and the drain notification, both
	// guarded by mu. A plain counter rather than a sync.WaitGroup: the
	// accept loop's increment must be ordered against Shutdown's wait
	// under the same lock that publishes closed, which a WaitGroup's
	// Add/Wait pair cannot express (a 0→1 Add concurrent with Wait is a
	// race by contract).
	conns   int
	drainCh chan struct{}

	start   time.Time
	metrics *serverMetrics
	log     *slog.Logger
}

// session is the server-side state of one connection's stream.
type session struct {
	id      uint64
	label   string
	via     string
	remote  string
	conn    net.Conn
	started time.Time

	state   atomic.Pointer[string]
	records atomic.Int64
	// Final summary for the stats endpoint, set under Server.mu once done.
	streamFrac float64
	mpki       float64
	finished   time.Time
}

func (s *session) setState(st string) { s.state.Store(&st) }

// parkedSession is an interrupted resumable session's continuation: the
// live tempstream.Session plus the decoder progress (per-CPU delta
// chains, frame and record counts) needed to splice the client's
// re-sent stream onto the same incremental analysis. A session that
// completed parks its final result instead (done non-nil, ts nil), so a
// client whose response line was lost can resume and still collect it.
type parkedSession struct {
	token   string
	label   string
	cpus    int
	ts      *tempstream.Session
	aw      *store.Writer // in-flight archive tee, parked with the analyzer
	chain   []uint64
	frames  int64
	records int64
	done    *SessionResult
}

// sessionFailure is runSession's error form: the machine-readable code
// and retry hint that land in the response, and whether the session's
// state was parked for resumption (in which case it is not counted as
// failed).
type sessionFailure struct {
	code       ErrCode
	err        error
	retryAfter time.Duration
	parked     bool
}

func failf(code ErrCode, format string, args ...any) *sessionFailure {
	return &sessionFailure{code: code, err: fmt.Errorf(format, args...)}
}

// Listen binds the ingest listener on addr (e.g. ":7465" or
// "127.0.0.1:0") but does not accept yet; call Serve.
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return NewServer(ln, cfg), nil
}

// NewServer wraps an existing listener (possibly fault-injected; see
// internal/faultnet) as an ingest server. Most callers use Listen.
func NewServer(ln net.Listener, cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancelAll := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:       cfg,
		ln:        ln,
		slots:     make(chan struct{}, cfg.MaxSessions),
		baseCtx:   baseCtx,
		cancelAll: cancelAll,
		sessions:  make(map[uint64]*session),
		start:     time.Now(),
		log:       cfg.Logger,
	}
	// Expiry discards the analyzer before the expired counter moves, so a
	// scrape never sees the count ahead of the pool it describes.
	s.parked = proto.NewLot(cfg.ResumeGrace, (*parkedSession).discard, func(p *parkedSession) {
		s.totalExpired.Add(1)
		s.log.Info("parked session expired", "label", p.label, "frames", p.frames, "records", p.records)
	})
	s.metrics = newServerMetrics(s)
	return s
}

// Addr returns the bound ingest address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts and handles connections until Shutdown or Close; it
// returns ErrServerClosed on a deliberate stop, or the accept error.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		// Register under the lock that Shutdown reads the count under:
		// every accepted connection is either counted before the drain
		// snapshot (and therefore awaited) or registers against an
		// already-begun shutdown — still handled, because graceful drain
		// means connections the listener delivered run to completion.
		s.mu.Lock()
		s.conns++
		s.mu.Unlock()
		go func() {
			defer s.connDone()
			s.handle(conn)
		}()
	}
}

// connDone retires one connection handler and, if it was the last and a
// drain is waiting, signals the drain exactly once.
func (s *Server) connDone() {
	s.mu.Lock()
	s.conns--
	if s.conns == 0 && s.drainCh != nil {
		close(s.drainCh)
		s.drainCh = nil
	}
	s.mu.Unlock()
}

// Shutdown stops accepting and drains: in-flight and queued sessions run
// to completion. If ctx expires first, remaining connections are closed
// forcibly and ctx.Err is returned. Parked sessions cannot outlive the
// server: once the drain completes their state is discarded (the
// listener is closed, so no resume can arrive).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	var done chan struct{}
	if s.conns > 0 {
		if s.drainCh == nil {
			s.drainCh = make(chan struct{})
		}
		done = s.drainCh
	}
	s.mu.Unlock()
	if !already {
		s.ln.Close()
	}

	if !already {
		s.log.Info("shutdown: draining")
	}
	var err error
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			// One cancellation fans out through the session context tree:
			// queued waits abort with the draining cause, each live
			// connection's AfterFunc closes its conn, unblocking any read,
			// and lingering closes stop waiting on their peers.
			s.cancelAll(errDraining)
			<-done
			err = ctx.Err()
		}
	}
	s.parked.Close()
	return err
}

// Close stops the server immediately (no drain).
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != nil && err != context.Canceled {
		return err
	}
	return nil
}

// discard drops a parked session's live state: the analyzer goes back
// to its pool, and any in-flight archive tee is aborted (no manifest
// entry, temp removed) — a stream that never finished must not surface
// as an archive.
func (p *parkedSession) discard() {
	if p.ts != nil {
		p.ts.Close()
	}
	if p.aw != nil {
		p.aw.Abort()
		p.aw = nil
	}
}

// countingSink forwards to the session's analysis sink while counting
// records for the stats endpoint.
type countingSink struct {
	inner trace.Sink
	n     *atomic.Int64
}

func (c *countingSink) Append(m trace.Miss) {
	c.n.Add(1)
	c.inner.Append(m)
}

// AppendBatch implements trace.BatchSink: one count update and one
// dispatch per decoded frame, keeping the decoder's batch delivery
// intact on its way into the session.
func (c *countingSink) AppendBatch(ms []trace.Miss) {
	c.n.Add(int64(len(ms)))
	trace.AppendAll(c.inner, ms)
}

func (c *countingSink) Finish(h trace.Header) { c.inner.Finish(h) }

var _ trace.BatchSink = (*countingSink)(nil)

// register adds a session to the stats table, pruning stale finished
// entries so the table stays bounded even if nobody scrapes stats.
func (s *Server) register(sess *session) {
	now := time.Now()
	s.mu.Lock()
	for id, old := range s.sessions {
		state := *old.state.Load()
		if (state == StateDone || state == StateFailed || state == StateParked) &&
			now.Sub(old.finished) > finishedTTL {
			delete(s.sessions, id)
		}
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
}

// handle runs one connection's session end to end. The session's whole
// lifetime hangs off one child of the server's context tree: cancelling
// it — idle trip, drain force, or normal completion — closes the conn
// via AfterFunc, so no teardown path needs its own timer or channel.
func (s *Server) handle(conn net.Conn) {
	// Lingering close: the client may still be streaming when its answer
	// goes out (an early rejection); only the server's force-drain cuts
	// the linger short.
	defer proto.Close(s.baseCtx, conn)
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	stop := context.AfterFunc(ctx, func() {
		// The idle cause is raised by a read that has already failed;
		// nothing is blocked on the conn, so leave it open — the error
		// response can still reach the (silent but connected) client.
		// Every other cause (drain force, parent teardown) must close it
		// to unblock a pending read.
		if errors.Is(context.Cause(ctx), errIdle) {
			return
		}
		conn.Close()
	})
	// LIFO: deregister the AfterFunc before the final cancel, so a normal
	// completion does not race the response write with a context close.
	defer cancel(nil)
	defer stop()

	sess := &session{
		id:      s.nextID.Add(1),
		remote:  conn.RemoteAddr().String(),
		conn:    conn,
		started: time.Now(),
	}
	sess.setState(StateQueued)
	s.register(sess)
	s.totalSessions.Add(1)

	ic := &idleConn{
		DeadlineConn: proto.DeadlineConn{Conn: conn, ReadTimeout: s.cfg.IdleTimeout},
		cancel:       cancel,
		bytes:        s.metrics.bytesRead,
	}
	cw := proto.NewLineWriter(conn, s.cfg.IdleTimeout)
	res, probe, fail := s.runSession(ctx, sess, ic, cw)
	if probe != nil {
		// A health probe, not a session: its row and count were already
		// retired in runSession; just deliver the snapshot.
		cw.WriteJSON(Response{Stats: probe})
		return
	}
	if fail != nil && ic.teardown {
		// A read error caused by our own teardown is better reported as
		// the cancellation cause (idle timeout, draining) than as "use of
		// closed network connection" — but only then: a genuine protocol
		// or validation fault that merely races the drain keeps its real
		// message.
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			fail.err = cause
			if errors.Is(cause, errDraining) {
				fail.code = CodeDraining
				fail.retryAfter = s.cfg.RetryHint
			}
		}
	}

	var resp Response
	if fail != nil {
		resp.Error = fail.err.Error()
		resp.Code = fail.code
		resp.RetryAfterMS = int(fail.retryAfter / time.Millisecond)
		if !fail.parked {
			s.totalFailed.Add(1)
		}
	} else {
		resp.Result = res
	}
	s.mu.Lock()
	switch {
	case fail == nil:
		sess.setState(StateDone)
		sess.streamFrac = res.StreamFrac
		sess.mpki = res.MPKI
	case fail.parked:
		sess.setState(StateParked)
	default:
		sess.setState(StateFailed)
	}
	sess.finished = time.Now()
	s.mu.Unlock()

	dur := sess.finished.Sub(sess.started).Seconds()
	attrs := []any{
		"session", sess.id, "label", sess.label, "remote", sess.remote,
		"records", sess.records.Load(), "seconds", dur,
	}
	switch {
	case fail == nil:
		s.metrics.closeSeconds.With("done").Observe(dur)
		s.log.Info("session done", append(attrs,
			"stream_frac", res.StreamFrac, "mpki", res.MPKI)...)
	case fail.parked:
		s.metrics.closeSeconds.With("parked").Observe(dur)
		s.log.Warn("session parked", append(attrs,
			"code", string(fail.code), "error", fail.err.Error())...)
	default:
		s.metrics.failedByCode.With(string(fail.code)).Inc()
		s.metrics.closeSeconds.With("failed").Observe(dur)
		s.log.Warn("session failed", append(attrs,
			"code", string(fail.code), "error", fail.err.Error())...)
	}

	cw.WriteJSON(resp) // best effort: the peer may be gone
}

// runSession negotiates, acquires a slot, and streams the connection's
// records through a tempstream.Session. ctx is the session's node in the
// server's context tree; ic is the connection wrapped with the idle
// deadline (whose trip cancels ctx with the idle cause); cw is the
// deadline-bounded control-channel writer shared with handle's final
// response.
//
// A request with Resume non-nil selects the resumable protocol: the
// server answers with a hello line (token, next expected data frame)
// once the session is admitted, acknowledges each decoded data frame,
// and — if the stream dies at a clean frame boundary — parks the
// analyzer state under the token for Config.ResumeGrace so the client
// can reconnect and continue the same incremental analysis.
func (s *Server) runSession(ctx context.Context, sess *session, ic *idleConn, cw *proto.LineWriter) (*SessionResult, *Stats, *sessionFailure) {
	br := bufio.NewReaderSize(ic, 64<<10)

	// Negotiation: one JSON line.
	line, err := proto.ReadLine(br, proto.MaxLine)
	if err != nil {
		if errors.Is(err, proto.ErrTooLarge) {
			return nil, nil, &sessionFailure{code: CodeTooLarge, err: err}
		}
		return nil, nil, failf(CodeBadRequest, "reading request: %v", err)
	}
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, nil, failf(CodeBadRequest, "parsing request: %v", err)
	}
	if req.Probe {
		// A health probe: retire the registration (probes are not
		// sessions — they must not skew the totals a fleet aggregates),
		// then snapshot. The snapshot is taken after the row is gone so the
		// prober never sees its own probe as an active session.
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		s.totalSessions.Add(-1)
		st := s.Stats()
		return nil, &st, nil
	}
	// The session is already visible to Stats, so the label lands under
	// the same lock Stats reads with.
	s.mu.Lock()
	sess.label = req.Label
	sess.via = req.Via
	s.mu.Unlock()

	resumable := req.Resume != nil
	var parked *parkedSession
	if resumable && req.Resume.Token != "" {
		if parked, _ = s.parked.Take(req.Resume.Token); parked == nil {
			return nil, nil, failf(CodeResumeUnknown, "resume token unknown or expired (grace window %v)", s.cfg.ResumeGrace)
		}
		s.mu.Lock()
		sess.label = parked.label
		s.mu.Unlock()
		// The parked session had already completed: redeliver its result
		// without touching the slot pool, and re-park it in case this
		// response line is lost too.
		if parked.done != nil {
			cw.WriteJSON(Hello{Token: parked.token, NextFrame: parked.frames, Done: true})
			done := parked.done
			s.parked.Park(parked.token, parked)
			return done, nil, nil
		}
		s.totalResumed.Add(1)
	}

	if parked == nil {
		if req.Analysis.MaxMisses < 0 {
			return nil, nil, failf(CodeBadRequest, "analysis window %d is negative", req.Analysis.MaxMisses)
		}
		if req.Analysis.MaxMisses == 0 || req.Analysis.MaxMisses > s.cfg.MaxWindow {
			req.Analysis.MaxMisses = s.cfg.MaxWindow
		}
		if pf := req.Prefetch; pf != nil {
			if pf.HistoryLen < 1 || pf.HistoryLen > MaxPrefetchHistory ||
				pf.BufferBlocks < 1 || pf.BufferBlocks > MaxPrefetchBuffer {
				return nil, nil, failf(CodeBadRequest, "prefetch config must be bounded: history_len in [1,%d], buffer_blocks in [1,%d]",
					MaxPrefetchHistory, MaxPrefetchBuffer)
			}
		}
	}

	// Explicit shed: when the queue is already MaxQueue deep, a new
	// arrival cannot be admitted within QueueTimeout anyway — tell it so
	// now, with a retry hint, instead of making it discover the overload
	// by waiting. An interrupted resume goes back to the park table so
	// the retry still finds its state.
	if s.cfg.MaxQueue > 0 && int(s.queued.Load()) >= s.cfg.MaxQueue {
		s.totalShed.Add(1)
		if parked != nil {
			s.parked.Park(parked.token, parked)
		}
		return nil, nil, &sessionFailure{
			code:       CodeBusy,
			retryAfter: s.cfg.RetryHint,
			err:        fmt.Errorf("server busy: queue full (%d sessions waiting)", s.cfg.MaxQueue),
		}
	}

	// Admission: one of MaxSessions analyzer bindings. While queued, the
	// client's stream backs up in the socket — that is the protocol's
	// backpressure, not an error. The wait is a child of the session's
	// context, bounded by Config.QueueTimeout (so producers multiplexing
	// several sessions cannot deadlock the slot pool) and torn down with
	// the tree when the server force-drains.
	s.queued.Add(1)
	slotCtx, cancelSlot := context.WithTimeoutCause(ctx, s.cfg.QueueTimeout, errSlotWait)
	select {
	case s.slots <- struct{}{}:
		s.queued.Add(-1)
		cancelSlot()
	case <-slotCtx.Done():
		s.queued.Add(-1)
		cause := context.Cause(slotCtx)
		cancelSlot()
		if parked != nil {
			s.parked.Park(parked.token, parked)
		}
		switch {
		case errors.Is(cause, errSlotWait):
			s.totalShed.Add(1)
			return nil, nil, &sessionFailure{
				code:       CodeBusy,
				retryAfter: s.cfg.RetryHint,
				err:        fmt.Errorf("server busy: no session slot within %v", s.cfg.QueueTimeout),
			}
		case errors.Is(cause, errDraining):
			return nil, nil, &sessionFailure{code: CodeDraining, retryAfter: s.cfg.RetryHint, err: cause}
		default:
			return nil, nil, &sessionFailure{code: CodeStream, err: cause}
		}
	}
	defer func() { <-s.slots }()
	sess.setState(StateReceiving)

	// Resumable sessions get their hello (token, replay position) only
	// now: admission is the point where streaming may begin, and a
	// client must not stream before it knows where to resume from.
	token := ""
	if parked != nil {
		token = parked.token
	} else if resumable {
		token = proto.NewToken()
	}
	dec := wire.NewDecoder(br)
	if resumable {
		var nextFrame int64
		if parked != nil {
			nextFrame = parked.frames
		}
		if err := cw.WriteJSON(Hello{Token: token, NextFrame: nextFrame}); err != nil {
			if parked != nil {
				s.parked.Park(token, parked)
			}
			return nil, nil, &sessionFailure{code: CodeStream, err: fmt.Errorf("writing hello: %w", err), parked: parked != nil}
		}
		dec.SetFrameHook(func(frames, records int64) error {
			return cw.WriteJSON(Ack{Ack: frames})
		})
	}

	meta, err := dec.Meta()
	if err != nil {
		if parked != nil {
			s.parked.Park(token, parked)
			return nil, nil, &sessionFailure{code: CodeStream, err: err, parked: true}
		}
		return nil, nil, &sessionFailure{code: CodeStream, err: err}
	}

	var ts *tempstream.Session
	var aw *store.Writer // archive tee, when Config.Archive is set
	if parked != nil {
		if meta.CPUs != parked.cpus {
			parked.discard()
			return nil, nil, failf(CodeBadRequest, "resumed stream declares %d cpus, session was %d", meta.CPUs, parked.cpus)
		}
		if err := dec.SetProgress(parked.chain, parked.frames, parked.records); err != nil {
			parked.discard()
			return nil, nil, failf(CodeBadRequest, "restoring resume progress: %v", err)
		}
		ts = parked.ts
		aw = parked.aw
		sess.records.Store(parked.records)
	} else {
		// A per-CPU prefetcher allocates one engine per processor, so the
		// memory ceiling applies to the product, not the per-engine bounds —
		// checkable only now that the wire header has declared the CPU count.
		if pf := req.Prefetch; pf != nil && pf.PerCPU {
			if pf.HistoryLen*meta.CPUs > MaxPrefetchHistory || pf.BufferBlocks*meta.CPUs > MaxPrefetchBuffer {
				return nil, nil, failf(CodeBadRequest, "per-cpu prefetch config exceeds ceilings at %d cpus: history_len*cpus <= %d, buffer_blocks*cpus <= %d",
					meta.CPUs, MaxPrefetchHistory, MaxPrefetchBuffer)
			}
		}
		ts = tempstream.NewSession(meta.CPUs, 0, tempstream.StreamOptions{
			Analysis: req.Analysis,
			Prefetch: req.Prefetch,
		})
		if s.cfg.Archive != nil {
			var awErr error
			aw, awErr = s.cfg.Archive.NewWriter(store.Meta{Label: sess.label}, meta.CPUs)
			if awErr != nil {
				// Best-effort: the warehouse must never fail ingest.
				s.log.Warn("archive writer unavailable; session not archived",
					"label", sess.label, "error", awErr)
				aw = nil
			}
		}
	}

	var sink trace.Sink = &countingSink{inner: ts, n: &sess.records}
	if aw != nil {
		sink = trace.Tee{sink, aw}
	}
	if tr, err := dec.Run(sink); err == nil {
		if aw != nil {
			aw.SetSymbols(tr.Funcs)
			if entry, commitErr := aw.Commit(); commitErr != nil {
				s.log.Warn("archive commit failed; session not archived",
					"label", sess.label, "error", commitErr)
			} else {
				s.log.Info("session archived",
					"label", sess.label, "archive", entry.ID, "records", entry.Records, "bytes", entry.Bytes)
			}
		}
	} else {
		// A resumable stream that died at a clean frame boundary parks
		// its analyzer state for the grace window; anything else (partial
		// frame delivered, totals mismatch, plain session) discards it.
		if resumable && dec.Resumable() {
			chain, frames, records := dec.Progress()
			s.totalParked.Add(1)
			s.parked.Park(token, &parkedSession{
				token:   token,
				label:   sess.label,
				cpus:    meta.CPUs,
				ts:      ts,
				aw:      aw, // the archive tee continues across the resume
				chain:   chain,
				frames:  frames,
				records: records,
			})
			return nil, nil, &sessionFailure{code: CodeStream, err: err, parked: true}
		}
		ts.Close()
		if aw != nil {
			aw.Abort()
		}
		return nil, nil, &sessionFailure{code: CodeStream, err: err}
	}
	s.totalRecords.Add(sess.records.Load())
	res := ResultOf(ts.Result(nil))
	if resumable {
		// Park the completed result too: if the response line is lost to
		// a reset, the client resumes and collects it from the park table
		// instead of failing with resume_unknown.
		_, frames, _ := dec.Progress()
		s.parked.Park(token, &parkedSession{token: token, label: sess.label, frames: frames, done: res})
	}
	return res, nil, nil
}

// SessionStats is one session's row in the stats snapshot.
type SessionStats struct {
	ID            uint64  `json:"id"`
	Label         string  `json:"label,omitempty"`
	Via           string  `json:"via,omitempty"` // forwarding tier, if relayed
	Remote        string  `json:"remote"`
	State         string  `json:"state"`
	Records       int64   `json:"records"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	StreamFrac    float64 `json:"stream_frac,omitempty"` // set once done
	MPKI          float64 `json:"mpki,omitempty"`        // set once done
}

// Stats is a point-in-time snapshot of the server.
type Stats struct {
	Name             string         `json:"name,omitempty"` // Config.Name
	UptimeSeconds    float64        `json:"uptime_seconds"`
	MaxSessions      int            `json:"max_sessions"`
	ActiveSessions   int            `json:"active_sessions"`
	QueuedSessions   int            `json:"queued_sessions"`
	ParkedSessions   int            `json:"parked_sessions"`
	TotalSessions    int64          `json:"total_sessions"`
	FailedSessions   int64          `json:"failed_sessions"`
	ShedSessions     int64          `json:"shed_sessions"`
	ResumedSessions  int64          `json:"resumed_sessions"`
	ExpiredSessions  int64          `json:"expired_sessions"`
	TotalRecords     int64          `json:"total_records"`
	IngestRecsPerSec float64        `json:"ingest_records_per_sec"` // completed records / uptime
	Sessions         []SessionStats `json:"sessions"`
}

// Stats snapshots the server: aggregate counters plus one row per live or
// recently finished session (per-session records, records/sec, and — once
// the session completed — its stream fraction and MPKI).
func (s *Server) Stats() Stats {
	now := time.Now()
	st := Stats{
		Name:            s.cfg.Name,
		UptimeSeconds:   now.Sub(s.start).Seconds(),
		MaxSessions:     s.cfg.MaxSessions,
		TotalSessions:   s.totalSessions.Load(),
		FailedSessions:  s.totalFailed.Load(),
		ShedSessions:    s.totalShed.Load(),
		ResumedSessions: s.totalResumed.Load(),
		ExpiredSessions: s.totalExpired.Load(),
		TotalRecords:    s.totalRecords.Load(),
	}
	if st.UptimeSeconds > 0 {
		st.IngestRecsPerSec = float64(st.TotalRecords) / st.UptimeSeconds
	}
	// The aggregate queue depth is the slot-wait counter — the number the
	// explicit shed compares against MaxQueue — not a count of sessions in
	// StateQueued, which also covers the instant between accept and the
	// request line being read.
	st.QueuedSessions = int(s.queued.Load())
	// Active is the slot count itself — the bound the pool enforces — not a
	// scan of session states, which trail the slot release.
	st.ActiveSessions = len(s.slots)
	st.ParkedSessions = s.parked.Len()
	s.mu.Lock()
	for _, sess := range s.sessions {
		state := *sess.state.Load()
		end := now
		if state == StateDone || state == StateFailed || state == StateParked {
			end = sess.finished
		}
		secs := end.Sub(sess.started).Seconds()
		row := SessionStats{
			ID:      sess.id,
			Label:   sess.label,
			Via:     sess.via,
			Remote:  sess.remote,
			State:   state,
			Records: sess.records.Load(),
			Seconds: secs,
		}
		if secs > 0 {
			row.RecordsPerSec = float64(row.Records) / secs
		}
		if state == StateDone {
			row.StreamFrac = sess.streamFrac
			row.MPKI = sess.mpki
		}
		st.Sessions = append(st.Sessions, row)
	}
	s.mu.Unlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// StatsHandler serves the live stats snapshot as JSON (mount on an HTTP
// mux, e.g. tsserved's -stats listener — obs.NewMux pairs it with the
// Registry's /metrics).
func (s *Server) StatsHandler() http.Handler {
	return obs.JSONHandler(func() any { return s.Stats() })
}
