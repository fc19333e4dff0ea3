package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Terminal resilient-session failures. Everything else the session hits —
// resets, stalls, busy and draining sheds, in-flight corruption — is
// absorbed by its retry loop.
var (
	// ErrRetriesExhausted: the retry policy ran out of attempts without a
	// successful reconnect.
	ErrRetriesExhausted = errors.New("resilient: retry policy exhausted")
	// ErrResumeLost: the server no longer holds the session's parked
	// state (grace window expired) and the replay ring has already
	// dropped acknowledged frames, so neither resuming nor restarting
	// from scratch can reconstruct the stream.
	ErrResumeLost = errors.New("resilient: server lost resume state beyond the replay ring")
	// errSessionClosed: the session was abandoned via Close.
	errSessionClosed = errors.New("resilient: session closed")
	// errNoConn is the internal recovery cause when an operation finds no
	// live connection.
	errNoConn = errors.New("resilient: no active connection")
)

// RetryPolicy tunes a ResilientSession's recovery behavior. The zero
// value selects the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds consecutive failed recovery attempts — without
	// forward progress — before the session fails with
	// ErrRetriesExhausted. An attempt that advances the server's
	// acknowledged frame position refreshes the budget, so a persistent
	// but lossy transport converges instead of exhausting a fixed total.
	// 0 means 10.
	MaxAttempts int
	// BaseDelay is the first backoff step; it doubles per failed attempt
	// up to MaxDelay, with uniform jitter in [d/2, d). A server-supplied
	// retry_after_ms hint raises (never lowers) the next delay. 0 means
	// 50ms / 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// DialTimeout bounds each reconnect dial. 0 means 5s.
	DialTimeout time.Duration
	// HelloTimeout bounds the wait for admission (the server's hello
	// arrives only once the session holds an analyzer slot) and, ring
	// full, the wait for the next ack. It should exceed the server's
	// QueueTimeout so an overloaded server answers busy before the client
	// gives up on it. 0 means 45s.
	HelloTimeout time.Duration
	// IOTimeout bounds each stream write. 0 means 1m.
	IOTimeout time.Duration
	// ResponseTimeout bounds Result's total wait for the final response,
	// across reconnects. 0 means 5m.
	ResponseTimeout time.Duration
	// RingFrames bounds the replay ring (unacknowledged frames kept for
	// retransmission, ~16 KB each at the encoder's frame size). When the
	// ring is full the producer blocks awaiting acks — the same
	// backpressure an unread socket exerts, made explicit. The ring is
	// also the session's in-flight window: on an abrupt reset the peer's
	// kernel may discard everything not yet consumed, so over a lossy
	// link the window should stay below the expected distance between
	// failures or each reconnect replays more than the link delivers.
	// 0 means 256.
	RingFrames int
	// Seed drives the jitter; a fixed seed makes recovery schedules
	// reproducible in tests.
	Seed int64
	// Dial overrides the transport (tests inject faultnet here). nil
	// means TCP with DialTimeout.
	Dial func(addr string) (net.Conn, error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.DialTimeout == 0 {
		p.DialTimeout = 5 * time.Second
	}
	if p.HelloTimeout == 0 {
		p.HelloTimeout = 45 * time.Second
	}
	if p.IOTimeout == 0 {
		p.IOTimeout = time.Minute
	}
	if p.ResponseTimeout == 0 {
		p.ResponseTimeout = 5 * time.Minute
	}
	if p.RingFrames == 0 {
		p.RingFrames = 256
	}
	if p.Dial == nil {
		dt := p.DialTimeout
		p.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dt)
		}
	}
	return p
}

// RetryStats counts a session's recovery events per error class, for
// operational summaries (tsload aggregates them across its fleet).
type RetryStats struct {
	// Dials is connection attempts, including the first.
	Dials int64 `json:"dials"`
	// Transport is transport-level failures (resets, timeouts, dial
	// errors) that triggered or continued recovery.
	Transport int64 `json:"transport"`
	// Busy / Draining / StreamErrors count server-reported retryable
	// failures by code.
	Busy         int64 `json:"busy"`
	Draining     int64 `json:"draining"`
	StreamErrors int64 `json:"stream_errors"`
	// Resumes is successful mid-stream resumptions from parked server
	// state; Restarts is recoveries that began the session over from
	// frame zero after the server lost that state.
	Resumes  int64 `json:"resumes"`
	Restarts int64 `json:"restarts"`
	// ResumeLost counts terminal resume_unknown failures (state gone and
	// the ring incomplete).
	ResumeLost int64 `json:"resume_lost"`
}

// Add folds other's counters into s (for fleet-wide aggregation).
func (s *RetryStats) Add(o RetryStats) {
	s.Dials += o.Dials
	s.Transport += o.Transport
	s.Busy += o.Busy
	s.Draining += o.Draining
	s.StreamErrors += o.StreamErrors
	s.Resumes += o.Resumes
	s.Restarts += o.Restarts
	s.ResumeLost += o.ResumeLost
}

// retryErr marks a failure as retryable, optionally carrying the
// server's backoff hint.
type retryErr struct {
	err  error
	hint time.Duration
}

func (e *retryErr) Error() string { return e.err.Error() }
func (e *retryErr) Unwrap() error { return e.err }

// connEpoch is one connection's lifetime within a resilient session: the
// write-deadline-armed conn and its reader goroutine's line channel.
// Recovery replaces the whole epoch; closing done releases the reader even
// if nobody drains its channel.
type connEpoch struct {
	conn  proto.DeadlineConn
	lines <-chan proto.Line
	done  chan struct{}
}

func (ep *connEpoch) close() {
	close(ep.done)
	ep.conn.Close()
}

// ResilientSession is the client half of one ingest session: a
// trace.Sink that streams every record over the wire protocol, so a
// producer (workload.RunStream, a decoder replaying an archive, any Sink
// driver) plugs into a remote tsserved or tsgate exactly as it would into
// a local analyzer. Every transport failure, server shed, or in-flight
// corruption is absorbed by reconnecting and resuming: the session opts
// into the server's resumable protocol (session token, per-frame acks)
// and keeps a bounded replay ring of unacknowledged frames; on reconnect
// it replays from the server's hello position, so an interrupted session
// continues the same incremental analysis server-side. If the server's
// parked state is gone (grace window expired) and the ring still holds
// the whole stream, the session degrades to a clean restart from frame
// zero; only when neither is possible — or the retry policy is exhausted
// — does it fail, and then with a typed terminal error. A single-shot
// caller passes RetryPolicy{MaxAttempts: 1}.
//
// Like every Sink, a session is driven from one goroutine: Append zero
// or more times, Finish once, then Result for the server's analysis.
type ResilientSession struct {
	addr string
	cpus int
	req  Request
	pol  RetryPolicy
	rng  *rand.Rand

	enc        *wire.Encoder
	prefix     []byte // magic + header frame, replayed on every reconnect
	prefixDone bool
	// ring holds the unacknowledged frames: data frames 0,1,2,… in stream
	// order (the trailer takes the next number), so Base is the server's
	// cumulative data-frame ack.
	ring proto.Ring

	token         string
	epoch         *connEpoch
	resumeUnknown int           // consecutive resume_unknown replies for a live token
	unknownSince  time.Time     // when the first of them arrived
	hint          time.Duration // pending server retry_after hint
	stats         RetryStats
	encDone       bool
	closed        bool
	resp          *SessionResult
	err           error
}

// Write implements the encoder's io.Writer: the magic and header frames
// (written during NewEncoder) become the replay prefix; every later
// frame — the encoder emits exactly one Write per frame — enters the
// replay ring and is transmitted.
func (s *ResilientSession) Write(p []byte) (int, error) {
	if !s.prefixDone {
		s.prefix = append(s.prefix, p...)
		return len(p), nil
	}
	s.enqueue(p)
	return len(p), nil
}

// DialResilient opens an ingest session. The initial connect runs under
// the same retry policy as later recoveries, so a briefly busy server
// delays the dial rather than failing it; a request the server rejects
// at admission fails here.
func DialResilient(addr string, cpus int, req Request, pol RetryPolicy) (*ResilientSession, error) {
	s := &ResilientSession{
		addr: addr,
		cpus: cpus,
		req:  req,
		pol:  pol.withDefaults(),
	}
	s.rng = rand.New(rand.NewSource(s.pol.Seed))
	s.enc = wire.NewEncoder(s, cpus)
	if err := s.enc.Err(); err != nil {
		return nil, err
	}
	s.prefixDone = true
	if err := s.recover(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Append implements trace.Sink.
func (s *ResilientSession) Append(m trace.Miss) {
	if s.err == nil {
		s.enc.Append(m)
	}
}

// AppendBatch implements trace.BatchSink, forwarding straight to the
// encoder's batch path.
func (s *ResilientSession) AppendBatch(ms []trace.Miss) {
	if s.err == nil {
		s.enc.AppendBatch(ms)
	}
}

// Finish implements trace.Sink.
func (s *ResilientSession) Finish(h trace.Header) {
	if s.err == nil {
		s.enc.Finish(h)
	}
}

// Records returns how many records have been streamed so far.
func (s *ResilientSession) Records() int64 { return s.enc.Records() }

// Stats returns the session's recovery counters so far.
func (s *ResilientSession) Stats() RetryStats { return s.stats }

// Token returns the server-issued session token (for observability).
func (s *ResilientSession) Token() string { return s.token }

// Result completes the session: it flushes the trailer, waits out any
// remaining recoveries, and returns the server's analysis. Call exactly
// once, after Finish.
func (s *ResilientSession) Result() (*SessionResult, error) {
	if s.resp == nil && s.err == nil && !s.encDone {
		s.encDone = true
		if err := s.enc.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	deadline := time.Now().Add(s.pol.ResponseTimeout)
	for s.resp == nil && s.err == nil {
		if s.epoch == nil {
			s.recover(errNoConn)
			continue
		}
		if remaining := time.Until(deadline); remaining <= 0 || !s.await(remaining) {
			s.err = fmt.Errorf("resilient: no response within %v", s.pol.ResponseTimeout)
		}
	}
	s.dropEpoch()
	if s.err != nil {
		return nil, s.err
	}
	return s.resp, nil
}

// Close abandons the session (error paths); safe after Result.
func (s *ResilientSession) Close() error {
	s.closed = true
	s.dropEpoch()
	if s.resp == nil && s.err == nil {
		s.err = errSessionClosed
	}
	return nil
}

// enqueue admits one encoder frame: waits for ring space (ack
// backpressure), records it for replay, and transmits it. If an ack
// drain triggered a recovery, the reconnect already replayed the frame
// from the ring and no direct send happens.
func (s *ResilientSession) enqueue(p []byte) {
	if s.err != nil || s.closed || s.resp != nil {
		return
	}
	for s.ring.Len() >= s.pol.RingFrames && s.err == nil && s.resp == nil {
		s.awaitAck()
	}
	if s.err != nil || s.resp != nil {
		return
	}
	s.ring.Push(p)
	ep := s.epoch
	if ep != nil {
		if err := s.poll(ep); err != nil {
			s.end(err)
		}
	}
	if s.err != nil || s.resp != nil || ep == nil || s.epoch != ep {
		return
	}
	if err := s.send(ep, p); err != nil {
		s.end(err)
	}
}

// awaitAck blocks for the next control line — used only when the replay
// ring is full, where the server's acks are the session's backpressure.
func (s *ResilientSession) awaitAck() {
	if s.epoch == nil {
		s.recover(errNoConn)
	} else if !s.await(s.pol.HelloTimeout) {
		s.end(s.transport(fmt.Errorf("resilient: no ack within %v with replay ring full", s.pol.HelloTimeout)))
	}
}

// await handles the live connection's next control line, reporting false
// if none arrives within d.
func (s *ResilientSession) await(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case msg := <-s.epoch.lines:
		if err := s.take(msg); err != nil {
			s.end(err)
		}
		return true
	case <-t.C:
		return false
	}
}

// take applies one control line: acks trim the ring and a result line
// completes the session. An error line — or the reader's own error —
// ends the connection and is returned: retryable (*retryErr) or terminal.
func (s *ResilientSession) take(msg proto.Line) error {
	var l controlLine
	if msg.Err != nil {
		return s.transport(msg.Err)
	}
	if err := json.Unmarshal(msg.Data, &l); err != nil {
		return s.transport(fmt.Errorf("resilient: parsing server line: %w", err))
	}
	switch {
	case l.Ack != nil:
		s.ring.Trim(*l.Ack)
	case l.Result != nil:
		s.resp = l.Result
	case l.Error != "":
		return s.classifyServerError(l)
	}
	return nil
}

// poll takes whatever control lines have already arrived on ep without
// blocking, returning the first error one of them ends the connection
// with.
func (s *ResilientSession) poll(ep *connEpoch) error {
	for s.resp == nil {
		select {
		case msg := <-ep.lines:
			if err := s.take(msg); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

// send writes p on ep. When the write fails, the peer may already have
// answered — a rejection, even the result — and closed, so what it sent
// is read before the failure is classified: lines are taken until the
// reader reports its own error, at most proto.SettleTime. A pending error
// or result line wins over the write error; nil comes back after a clean
// write or once the result arrived.
func (s *ResilientSession) send(ep *connEpoch, p []byte) error {
	_, werr := ep.conn.Write(p)
	if werr == nil {
		return nil
	}
	t := time.NewTimer(proto.SettleTime)
	defer t.Stop()
	for s.resp == nil {
		select {
		case msg := <-ep.lines:
			if err := s.take(msg); err != nil {
				return err
			}
		case <-t.C:
			return s.transport(werr)
		}
	}
	return nil
}

// transport wraps a dial, read, or write failure (or a timeout) as
// retryable, counting it.
func (s *ResilientSession) transport(err error) error {
	s.stats.Transport++
	return &retryErr{err: err}
}

// end handles the error that ended the live connection: recover from a
// retryable one, fail on a terminal one.
func (s *ResilientSession) end(err error) {
	var re *retryErr
	if errors.As(err, &re) {
		s.hint = re.hint
		s.recover(re.err)
		return
	}
	s.err = err
	s.dropEpoch()
}

// classifyServerError maps a server error line to a retryable or
// terminal client error, counting it by class. resume_unknown degrades
// to a restart from scratch when the ring still holds the entire stream
// (nothing was ever acked and therefore dropped); with acked frames
// gone it is retried briefly (the park may not have landed yet) and then
// terminal.
func (s *ResilientSession) classifyServerError(l controlLine) error {
	err := fmt.Errorf("server: %s", l.Error)
	hint := time.Duration(l.RetryAfterMS) * time.Millisecond
	switch l.Code {
	case CodeBusy:
		s.stats.Busy++
		return &retryErr{err: err, hint: hint}
	case CodeDraining:
		s.stats.Draining++
		return &retryErr{err: err, hint: hint}
	case CodeStream:
		s.stats.StreamErrors++
		return &retryErr{err: err, hint: hint}
	case CodeResumeUnknown:
		if s.ring.Base() == 0 {
			s.stats.Restarts++
			s.token = ""
			return &retryErr{err: err}
		}
		// A reconnect can outrun the server's park of the dying
		// connection's state: the client learns of a reset the instant its
		// write fails, while the server only parks once its decoder
		// observes the broken read — so a fast backoff can present a
		// perfectly good token before it is back in the table. Most parks
		// land within milliseconds, so the first retry keeps the policy's
		// backoff; the second is not sent before proto.SettleTime has
		// passed since the first reply, whatever BaseDelay is. Only a
		// resume_unknown after that means the state is truly gone.
		s.resumeUnknown++
		switch s.resumeUnknown {
		case 1:
			s.unknownSince = time.Now()
			return &retryErr{err: err, hint: hint}
		case 2:
			// backoff jitters a hint down to half, so ask for twice the
			// rest of the floor.
			rest := proto.SettleTime - time.Since(s.unknownSince)
			return &retryErr{err: err, hint: max(hint, 2*rest)}
		}
		s.stats.ResumeLost++
		return fmt.Errorf("%w: %v", ErrResumeLost, err)
	default:
		return err
	}
}

// backoff computes the next recovery delay: exponential from BaseDelay,
// capped at MaxDelay, raised to any pending server hint, with uniform
// jitter in [d/2, d) so a shed fleet does not reconnect in lockstep.
func (s *ResilientSession) backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := s.pol.BaseDelay << uint(attempt)
	if d <= 0 || d > s.pol.MaxDelay {
		d = s.pol.MaxDelay
	}
	if s.hint > d {
		d = s.hint
	}
	s.hint = 0
	half := d / 2
	return half + time.Duration(s.rng.Int63n(int64(half)+1))
}

// recover re-establishes the session after cause interrupted it (nil for
// the initial connect): dial, handshake, and replay unacknowledged
// frames, under the retry policy. On return either the session has a
// live epoch (nil error) or s.err is terminal.
func (s *ResilientSession) recover(cause error) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = errSessionClosed
		return s.err
	}
	s.dropEpoch()
	lastErr := cause
	for attempt := 0; attempt < s.pol.MaxAttempts; attempt++ {
		if attempt > 0 || cause != nil || s.hint > 0 {
			time.Sleep(s.backoff(attempt))
		}
		acked := s.ring.Base()
		err := s.attempt()
		if err == nil {
			return nil
		}
		lastErr = err
		var re *retryErr
		if errors.As(err, &re) {
			s.hint = re.hint
			// An attempt that advanced the server's acknowledged position
			// made forward progress even though it died (the hello's resume
			// point moved, so the server consumed frames from a previous
			// replay). Refresh the budget: MaxAttempts bounds consecutive
			// attempts WITHOUT progress, so a long stream crossing a lossy
			// link converges one surviving chunk at a time instead of
			// charging every partial replay against a fixed total.
			if s.ring.Base() > acked {
				attempt = -1
			}
			continue
		}
		s.err = err
		return s.err
	}
	s.err = fmt.Errorf("%w (%d attempts): %v", ErrRetriesExhausted, s.pol.MaxAttempts, lastErr)
	return s.err
}

// attempt makes one connect-and-handshake try: dial, send the request
// (with the resume token, if any), await the hello, and replay the
// prefix plus every unacknowledged frame from the server's position. A
// *retryErr return means the next attempt may succeed; any other error
// is terminal.
func (s *ResilientSession) attempt() error {
	s.stats.Dials++
	req := s.req
	req.Resume = &ResumeRequest{Token: s.token}
	line, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("resilient: encoding request: %w", err)
	}
	conn, err := s.pol.Dial(s.addr)
	if err != nil {
		return s.transport(err)
	}
	done := make(chan struct{})
	ep := &connEpoch{
		conn:  proto.DeadlineConn{Conn: conn, WriteTimeout: s.pol.IOTimeout},
		lines: proto.ReadLines(conn, done),
		done:  done,
	}
	if err := s.handshake(ep, append(line, '\n')); err != nil {
		ep.close()
		return err
	}
	s.epoch = ep
	return nil
}

// handshake sends the request line on a fresh connection, awaits the
// hello, and replays from the hello's position.
func (s *ResilientSession) handshake(ep *connEpoch, reqLine []byte) error {
	if err := s.send(ep, reqLine); err != nil {
		return err
	}
	// The hello arrives once the server admits the session (it may queue
	// first); an error line here instead is a shed or a resume failure.
	var hello controlLine
	t := time.NewTimer(s.pol.HelloTimeout)
	defer t.Stop()
	select {
	case msg := <-ep.lines:
		if msg.Err != nil {
			return s.transport(msg.Err)
		}
		if err := json.Unmarshal(msg.Data, &hello); err != nil {
			return s.transport(fmt.Errorf("resilient: parsing server line: %w", err))
		}
	case <-t.C:
		return s.transport(fmt.Errorf("resilient: no hello within %v", s.pol.HelloTimeout))
	}
	if hello.Error != "" {
		return s.classifyServerError(hello)
	}
	if hello.Token == "" {
		return errors.New("resilient: server hello carried no session token")
	}
	resuming := s.token != ""
	s.token = hello.Token
	s.resumeUnknown = 0 // the server recognized us; any park race resolved
	if hello.Done {
		// The previous connection's stream completed; only the response
		// line was lost. It follows on this connection — nothing to send.
		return nil
	}
	if err := s.replay(ep, hello.NextFrame); err != nil {
		return err
	}
	if resuming {
		s.stats.Resumes++
	}
	return nil
}

// replay resends the stream from the server's position next: the prefix,
// then every retained frame from next on, polling control lines between
// writes. Acks for frames the server consumes mid-replay shrink the
// remaining work — and register as forward progress for the retry budget
// even if this connection dies before the replay completes — while a
// result line ends the session and an error line aborts the attempt.
// Without the polling, a long replay over a lossy link re-sends frames
// the server already has and a doomed connection's partial progress is
// lost with it.
func (s *ResilientSession) replay(ep *connEpoch, next int64) error {
	if next < s.ring.Base() || next > s.ring.Next() {
		return fmt.Errorf("resilient: server resume position %d outside acked window [%d, %d]", next, s.ring.Base(), s.ring.Next())
	}
	s.ring.Trim(next)
	if err := s.send(ep, s.prefix); err != nil {
		return err
	}
	for seq := next; ; seq++ {
		if err := s.poll(ep); err != nil {
			return err
		}
		seq = max(seq, s.ring.Base())
		if s.resp != nil || seq >= s.ring.Next() {
			return nil
		}
		if err := s.send(ep, s.ring.Frame(seq)); err != nil {
			return err
		}
	}
}

// dropEpoch abandons the current connection: the conn closes (unblocking
// the reader) and the done channel releases the reader even if its
// channel send is pending.
func (s *ResilientSession) dropEpoch() {
	if s.epoch != nil {
		s.epoch.close()
		s.epoch = nil
	}
}
