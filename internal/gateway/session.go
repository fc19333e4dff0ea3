package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/wire"
)

// gwSession is one relayed session: the client's routing key and derived
// backend request, the replay state (stream prefix, data-frame ring,
// trailer), and the current backend attachment. The same struct is what
// the park lot holds between a client disconnect and its resume —
// parking a gateway session keeps the backend leg alive, so a resumed
// client splices onto the same backend session mid-stream.
type gwSession struct {
	id        uint64
	key       string
	remote    string
	resumable bool
	token     string
	reqLine   []byte // backend-facing request line (Via set, Resume stripped)

	prefix []byte // magic + header frame, replayed on every backend attach
	// ring retains the data frames from frame 0 for failover replay. It is
	// never trimmed while the session can still fail over; once it
	// outgrows Config.RingFrames it is dropped for good, and Base > 0 from
	// then on marks the session as no longer replayable.
	ring     proto.Ring
	framesIn int64 // data frames received from the client and forwarded
	trailer  []byte
	tried    map[string]bool // backends that failed or declined this session
	reroutes int

	be    *backend
	bconn *proto.DeadlineConn
	lines <-chan proto.Line // the backend leg's reader
	done  chan struct{}     // releases that reader

	doneLine []byte // final response line, for redelivery after a lost response
}

// relayFailure is how the relay reports a session it could not complete:
// either a backend line to pass through verbatim (raw), or a typed
// failure of the gateway's own.
type relayFailure struct {
	raw        []byte
	code       server.ErrCode
	err        error
	retryAfter time.Duration
}

func badRequest(format string, args ...any) *relayFailure {
	return &relayFailure{code: server.CodeBadRequest, err: fmt.Errorf(format, args...)}
}

func streamFailure(format string, args ...any) *relayFailure {
	return &relayFailure{code: server.CodeStream, err: fmt.Errorf(format, args...)}
}

// handle runs one client connection end to end.
func (g *Gateway) handle(conn net.Conn) {
	defer proto.Close(context.Background(), conn)
	br := bufio.NewReaderSize(&proto.DeadlineConn{Conn: conn, ReadTimeout: g.cfg.IdleTimeout}, 64<<10)
	cw := proto.NewLineWriter(conn, g.cfg.IdleTimeout)

	line, err := proto.ReadLine(br, proto.MaxLine)
	if err != nil {
		code := server.CodeBadRequest
		if errors.Is(err, proto.ErrTooLarge) {
			code = server.CodeTooLarge
		}
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("reading request: %v", err), Code: code})
		return
	}
	var req server.Request
	if err := json.Unmarshal(line, &req); err != nil {
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("parsing request: %v", err), Code: server.CodeBadRequest})
		return
	}
	if req.Probe {
		st := g.AggregateStats()
		cw.WriteJSON(server.Response{Stats: &st})
		return
	}
	g.totalSessions.Add(1)

	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if closed {
		g.totalShed.Add(1)
		g.totalFailed.Add(1)
		cw.WriteJSON(server.Response{
			Error: "gateway draining", Code: server.CodeDraining,
			RetryAfterMS: int(g.cfg.RetryHint / time.Millisecond),
		})
		return
	}

	if req.Resume != nil && req.Resume.Token != "" {
		sess, ok := g.parked.Take(req.Resume.Token)
		if !ok {
			g.totalFailed.Add(1)
			cw.WriteJSON(server.Response{
				Error: fmt.Sprintf("resume token unknown or expired (grace window %v)", g.cfg.ResumeGrace),
				Code:  server.CodeResumeUnknown,
			})
			return
		}
		if done := sess.doneLine; done != nil {
			// The session completed; only the response line was lost.
			hello := server.Hello{Token: sess.token, NextFrame: sess.framesIn, Done: true}
			g.parked.Park(sess.token, sess)
			cw.WriteJSON(hello)
			cw.WriteRaw(done)
			return
		}
		g.totalResumed.Add(1)
		sess.tried = make(map[string]bool) // a fresh connection earns backends a fresh chance
		g.relay(sess, br, cw)
		return
	}

	sess := &gwSession{
		id:        g.nextID.Add(1),
		remote:    conn.RemoteAddr().String(),
		resumable: req.Resume != nil,
		tried:     make(map[string]bool),
	}
	sess.key = req.Label
	if sess.key == "" {
		sess.key = sess.remote
	}
	if sess.resumable {
		sess.token = proto.NewToken()
	}
	breq := req
	breq.Resume = nil
	breq.Via = g.cfg.Name
	bline, err := json.Marshal(breq)
	if err != nil {
		g.totalFailed.Add(1)
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("encoding backend request: %v", err), Code: server.CodeBadRequest})
		return
	}
	sess.reqLine = append(bline, '\n')
	g.relay(sess, br, cw)
}

// relay streams one session (fresh or resumed) between its client and
// the fleet, then answers the client. Release before publish: the
// session's backend leg and replay ring are let go — or the session is
// parked — before the answer goes out, so nothing the client does next
// (its next session, a scrape) can observe this one's backend load or
// retained frames.
func (g *Gateway) relay(sess *gwSession, br *bufio.Reader, cw *proto.LineWriter) {
	respLine, fail := g.stream(sess, br, cw)
	if fail != nil {
		g.respondFail(cw, sess, fail)
		return
	}
	g.totalRelayedOK.Add(1)
	g.log.Info("session relayed", "session", sess.id, "key", sess.key,
		"frames", sess.framesIn, "reroutes", sess.reroutes)
	g.release(sess)
	if sess.resumable {
		// Park the completed result for redelivery, as the server does: a
		// client whose response line was lost resumes and collects it
		// instead of failing with resume_unknown.
		sess.doneLine = respLine
		g.parked.Park(sess.token, sess)
	}
	cw.WriteRaw(respLine) // best effort; resumable clients can re-collect
}

// stream relays the session's stream to the backend and returns the
// backend's response line once the trailer has been answered.
func (g *Gateway) stream(sess *gwSession, br *bufio.Reader, cw *proto.LineWriter) ([]byte, *relayFailure) {
	if sess.bconn == nil {
		// Fresh session, or one parked while detached (its backend died
		// and no replacement was available at the time).
		if fail := g.attach(sess); fail != nil {
			return nil, fail
		}
	}
	if sess.resumable {
		if err := cw.WriteJSON(server.Hello{Token: sess.token, NextFrame: sess.framesIn}); err != nil {
			return nil, streamFailure("writing hello: %w", err)
		}
	}

	// Stream prefix: magic + header frame. A resumed client replays it on
	// every reconnect; the backend already holds it, so it is verified
	// against the original and dropped.
	if err := wire.ReadMagic(br); err != nil {
		return nil, streamFailure("reading stream magic: %w", err)
	}
	kind, raw, err := wire.ReadRawFrame(br, nil)
	if err != nil {
		return nil, streamFailure("reading header frame: %w", err)
	}
	if kind != wire.KindHeader {
		return nil, badRequest("stream starts with frame %c, want header", kind)
	}
	prefix := append(wire.MagicBytes(), raw...)
	switch {
	case sess.prefix == nil:
		sess.prefix = prefix
		if fail := g.forward(sess, sess.prefix); fail != nil {
			return nil, fail
		}
	case !bytes.Equal(prefix, sess.prefix):
		return nil, badRequest("resumed stream prefix differs from the original")
	}

	scratch := []byte(nil)
	for {
		// A backend that answered before the trailer is declining, dying,
		// or confused — all handled proactively so a dead backend is
		// replaced now, not at the next frame's write error.
		select {
		case msg := <-sess.lines:
			if fail := g.backendFailed(sess, errors.New("backend answered before the trailer"), &msg); fail != nil {
				return nil, fail
			}
		default:
		}
		kind, raw, err := wire.ReadRawFrame(br, scratch)
		if err != nil {
			// The client leg died (reset, idle trip, corruption). Only
			// whole CRC-verified frames were ever forwarded, so the stream
			// boundary is clean regardless of how the link failed: park for
			// resumption when the protocol allows it.
			return nil, streamFailure("reading stream: %w", err)
		}
		switch kind {
		case wire.KindHeader:
			return nil, badRequest("duplicate header frame")
		case wire.KindData:
			scratch = raw
			if sess.ring.Base() == 0 { // still retaining
				sess.ring.Push(raw)
				g.ringFrames.Add(1)
				if sess.ring.Len() > g.cfg.RingFrames {
					g.dropRing(sess) // failover impossible; stop retaining
					g.log.Info("replay ring overflowed; session can no longer fail over",
						"session", sess.id, "key", sess.key, "ring_frames", g.cfg.RingFrames)
				}
			}
			if fail := g.forward(sess, raw); fail != nil {
				return nil, fail
			}
			sess.framesIn++
			if sess.resumable {
				if err := cw.WriteJSON(server.Ack{Ack: sess.framesIn}); err != nil {
					return nil, streamFailure("writing ack: %w", err)
				}
			}
		case wire.KindTrailer:
			if sess.trailer == nil {
				sess.trailer = append([]byte(nil), raw...)
				if fail := g.forward(sess, sess.trailer); fail != nil {
					return nil, fail
				}
			}
			// else: a resumed client replaying a trailer the attach already
			// delivered — drop the duplicate.
			return g.awaitResponse(sess)
		}
	}
}

// attach binds the session to a backend chosen by the ring and replays
// everything the session has streamed so far (request line, prefix, data
// frames, trailer). Backends that fail the dial are circuit-opened and
// skipped; a nil return means the session is attached and fully caught
// up.
func (g *Gateway) attach(sess *gwSession) *relayFailure {
	for {
		b, err := g.pick(sess.key, sess.tried)
		if err != nil {
			return g.shedFailure(err)
		}
		conn, derr := g.cfg.Dial(b.addr)
		if derr != nil {
			b.br.fail(derr, time.Now())
			g.mu.Lock()
			b.active--
			g.mu.Unlock()
			sess.tried[b.addr] = true
			continue
		}
		sess.be = b
		sess.bconn = &proto.DeadlineConn{Conn: conn, WriteTimeout: g.cfg.WriteTimeout}
		sess.done = make(chan struct{})
		sess.lines = proto.ReadLines(conn, sess.done)
		return g.replay(sess)
	}
}

// replay writes the session's accumulated stream to the current backend.
// A write failure hands off to backendFailed, which reroutes (the next
// attach replays everything, so nothing more to send here) or reports
// the terminal failure.
func (g *Gateway) replay(sess *gwSession) *relayFailure {
	parts := [][]byte{sess.reqLine, sess.prefix}
	for seq := sess.ring.Base(); seq < sess.ring.Next(); seq++ {
		parts = append(parts, sess.ring.Frame(seq))
	}
	parts = append(parts, sess.trailer)
	for _, p := range parts {
		if _, err := sess.bconn.Write(p); err != nil {
			return g.backendFailed(sess, err, nil)
		}
	}
	return nil
}

// forward relays one payload to the current backend. On failure the
// session reroutes — and because every retained payload was retained
// before forwarding, the reroute's replay has already delivered it.
func (g *Gateway) forward(sess *gwSession, p []byte) *relayFailure {
	if _, err := sess.bconn.Write(p); err != nil {
		return g.backendFailed(sess, err, nil)
	}
	return nil
}

// backendFailed handles a suspected backend failure: classify (a
// busy/draining line means the backend is alive and shedding — move the
// session without opening its circuit; any other error line passes
// through to the client verbatim; everything else is a death that opens
// the circuit), then reroute via a fresh attach. A nil return means the
// session is attached to a replacement and fully replayed.
//
// After a failed write (msg nil) the backend may have answered and
// closed before the write failed — a rejection of the request, say — so
// its reader is heard out first, for at most proto.SettleTime: a pending
// line wins over the write error.
func (g *Gateway) backendFailed(sess *gwSession, cause error, msg *proto.Line) *relayFailure {
	if msg == nil {
		select {
		case m := <-sess.lines:
			msg = &m
		case <-time.After(proto.SettleTime):
		}
	}
	decline := false
	var termRaw []byte
	if msg != nil {
		if msg.Err != nil {
			cause = msg.Err
		} else {
			var resp server.Response
			if json.Unmarshal(msg.Data, &resp) == nil && resp.Error != "" {
				switch resp.Code {
				case server.CodeBusy, server.CodeDraining:
					decline = true
					cause = fmt.Errorf("backend shed session: %s", resp.Error)
				default:
					termRaw = msg.Data
				}
			}
		}
	}
	victim := sess.be
	if victim != nil {
		if decline {
			g.mu.Lock()
			victim.declined++
			g.mu.Unlock()
		} else if termRaw == nil {
			victim.br.fail(cause, time.Now())
		}
		sess.tried[victim.addr] = true
	}
	g.detach(sess)
	if termRaw != nil {
		return &relayFailure{raw: termRaw}
	}
	if sess.ring.Base() > 0 {
		return streamFailure("backend lost beyond the session's replay ring (%d frames retained): %v", g.cfg.RingFrames, cause)
	}
	if fail := g.attach(sess); fail != nil {
		return fail
	}
	if !decline {
		g.totalRerouted.Add(1)
		sess.reroutes++
		if victim != nil {
			g.mu.Lock()
			victim.rerouted++
			g.mu.Unlock()
		}
	}
	from := ""
	if victim != nil {
		from = victim.addr
	}
	to := ""
	if sess.be != nil {
		to = sess.be.addr
	}
	g.log.Warn("session rerouted", "session", sess.id, "key", sess.key,
		"from", from, "to", to, "declined", decline, "cause", cause.Error())
	return nil
}

// awaitResponse waits out the backend's final response after the
// trailer, rerouting (with full replay, trailer included) if the backend
// dies or declines while computing it.
func (g *Gateway) awaitResponse(sess *gwSession) ([]byte, *relayFailure) {
	deadline := time.Now().Add(g.cfg.ResponseTimeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			err := fmt.Errorf("no backend response within %v", g.cfg.ResponseTimeout)
			if b := sess.be; b != nil {
				b.br.fail(err, time.Now())
			}
			g.detach(sess)
			return nil, &relayFailure{code: server.CodeStream, err: err}
		}
		timer := time.NewTimer(remaining)
		select {
		case msg := <-sess.lines:
			timer.Stop()
			if msg.Err == nil {
				var resp server.Response
				if json.Unmarshal(msg.Data, &resp) == nil && resp.Error == "" && resp.Result != nil {
					return msg.Data, nil
				}
			}
			if fail := g.backendFailed(sess, errors.New("backend response unusable"), &msg); fail != nil {
				return nil, fail
			}
			// Rerouted; keep waiting on the replacement.
		case <-timer.C:
		}
	}
}

// respondFail delivers a failure to the client, releasing the session
// first. Retryable failures of resumable sessions park instead of failing
// outright — the client's typed-code retry resumes with the replay ring
// intact, so even "every backend is down right now" heals if the fleet
// recovers within the grace window.
func (g *Gateway) respondFail(cw *proto.LineWriter, sess *gwSession, fail *relayFailure) {
	if fail.raw != nil {
		g.totalFailed.Add(1)
		g.release(sess)
		cw.WriteRaw(fail.raw)
		return
	}
	resp := server.Response{Error: fail.err.Error(), Code: fail.code, RetryAfterMS: int(fail.retryAfter / time.Millisecond)}
	if fail.code.Retryable() && sess.resumable && sess.ring.Base() == 0 {
		g.mu.Lock()
		closed := g.closed
		g.mu.Unlock()
		if !closed {
			g.totalParked.Add(1)
			g.log.Info("session parked", "session", sess.id, "key", sess.key,
				"code", string(fail.code), "error", resp.Error)
			g.parked.Park(sess.token, sess)
			cw.WriteJSON(resp)
			return
		}
	}
	g.totalFailed.Add(1)
	g.log.Warn("session failed", "session", sess.id, "key", sess.key,
		"code", string(fail.code), "error", resp.Error)
	g.release(sess)
	cw.WriteJSON(resp)
}

// shedFailure classifies a routing dead end as the typed shed the
// protocol promises: draining when the gateway is stopping, busy
// otherwise, always with the retry hint.
func (g *Gateway) shedFailure(cause error) *relayFailure {
	g.mu.Lock()
	closed := g.closed
	n := 0
	for _, b := range g.backends {
		if !b.draining {
			n++
		}
	}
	g.mu.Unlock()
	g.totalShed.Add(1)
	code := server.CodeBusy
	if closed {
		code = server.CodeDraining
	}
	return &relayFailure{
		code:       code,
		err:        fmt.Errorf("gateway: %v (%d backends configured)", cause, n),
		retryAfter: g.cfg.RetryHint,
	}
}
