// Package server implements the tsserved ingest daemon: a session-
// multiplexed TCP front end over the streaming analysis pipeline. Each
// connection negotiates one session with a JSON request line, streams a
// wire-format miss stream (internal/wire), and receives the session's
// analysis as a JSON response line. Sessions are bound to pooled
// incremental analyzers via tempstream.Session, so per-session memory is
// O(analysis window) regardless of stream length, and a bounded session
// count plus the framed protocol give natural backpressure: a client
// whose stream outruns the analyzers blocks in its socket writes.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/proto"
	"repro/internal/trace"
)

// ErrCode is a machine-readable classification of a session failure,
// carried in Response.Code (and in the hello line of a resumable
// session). Clients branch on the code — retry, back off, resume, or
// give up — instead of string-matching error text.
type ErrCode string

const (
	// CodeBusy: the server shed the session (queue full or slot wait
	// expired). Retry after the response's retry hint.
	CodeBusy ErrCode = "busy"
	// CodeDraining: the server is shutting down; retry elsewhere/later.
	CodeDraining ErrCode = "draining"
	// CodeTooLarge: the request line exceeded the protocol bound.
	CodeTooLarge ErrCode = "too_large"
	// CodeBadRequest: the request or stream negotiation is invalid
	// (malformed JSON, negative window, unbounded prefetch, CPU-count
	// mismatch). Retrying the same request will fail the same way.
	CodeBadRequest ErrCode = "bad_request"
	// CodeResumeUnknown: the resume token is unknown or its grace window
	// expired; mid-stream resumption is impossible.
	CodeResumeUnknown ErrCode = "resume_unknown"
	// CodeStream: the session's stream failed in flight (transport reset,
	// frame corruption, idle timeout). For resumable sessions the
	// analyzer state was parked, so a resume continues the same analysis.
	CodeStream ErrCode = "stream"
)

// Retryable reports whether a failure with this code is worth retrying:
// the condition is transient (load, drain, transport), not a property of
// the request itself.
func (c ErrCode) Retryable() bool {
	switch c {
	case CodeBusy, CodeDraining, CodeStream:
		return true
	}
	return false
}

// ResumeRequest opts a session into the resumable protocol. A non-nil
// Resume in the request makes the server issue a session token and
// per-frame acknowledgements; a non-empty Token asks it to continue a
// previously interrupted session from its parked analyzer state.
type ResumeRequest struct {
	// Token is the server-issued session token from a previous hello;
	// empty for a new session.
	Token string `json:"token,omitempty"`
}

// Request is the session negotiation, sent by the client as one JSON line
// before its wire stream. The zero value is a valid request (default
// analysis window, no prefetcher).
type Request struct {
	// Label names the session in the server's stats (e.g. "oltp/multi").
	Label string `json:"label,omitempty"`
	// Probe, when true, turns the exchange into a health check: the server
	// answers immediately with its Stats snapshot in the response line (no
	// analyzer slot is taken, no stream follows, and the probe is not
	// counted as a session). This is what a gateway's health checker and
	// fleet-stats aggregation speak — one round trip on the ingest port
	// proves the whole accept→negotiate→respond path, not just that a
	// stats HTTP listener is alive.
	Probe bool `json:"probe,omitempty"`
	// Via names the tier that forwarded this session (e.g. a tsgate
	// instance), surfaced per session in the server's stats so a fleet
	// operator can tell relayed sessions from direct ones.
	Via string `json:"via,omitempty"`
	// Analysis tunes the per-session incremental analysis; the zero value
	// matches tempstream defaults. The server clamps MaxMisses to its
	// configured ceiling, so a client cannot demand unbounded memory.
	Analysis core.Options `json:"analysis"`
	// Prefetch, when non-nil, additionally evaluates a temporal-stream
	// prefetcher over the session's stream. Both HistoryLen and
	// BufferBlocks must be explicitly bounded (the zero values select the
	// idealized unbounded engine, whose structures grow with the stream —
	// the server rejects that; see MaxPrefetchHistory/MaxPrefetchBuffer).
	Prefetch *prefetch.Config `json:"prefetch,omitempty"`
	// Resume, when non-nil, selects the resumable protocol (hello line,
	// frame acks, parked-state resumption). Plain sessions leave it nil
	// and speak the original request/stream/response exchange.
	Resume *ResumeRequest `json:"resume,omitempty"`
}

// ReadRequest reads a session's negotiation: one JSON Request line of at
// most proto.MaxLine bytes. tsserved and tsgate both negotiate through
// it, so a failure reads the same from either daemon: too_large with
// proto.ErrTooLarge for a line over the bound, bad_request for a read
// error or malformed JSON.
func ReadRequest(br *bufio.Reader) (Request, ErrCode, error) {
	var req Request
	line, err := proto.ReadLine(br, proto.MaxLine)
	switch {
	case errors.Is(err, proto.ErrTooLarge):
		return req, CodeTooLarge, err
	case err != nil:
		return req, CodeBadRequest, fmt.Errorf("reading request: %w", err)
	}
	if err := json.Unmarshal(line, &req); err != nil {
		return req, CodeBadRequest, fmt.Errorf("parsing request: %w", err)
	}
	return req, "", nil
}

// Response is the server's one-line JSON answer, sent after the client's
// trailer (or after a stream error).
type Response struct {
	Result *SessionResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	// Code classifies Error for machine consumption; empty on success.
	Code ErrCode `json:"code,omitempty"`
	// RetryAfterMS hints how long a shed client should back off before
	// retrying (busy/draining failures).
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
	// Stats answers a probe request (Request.Probe); nil otherwise.
	Stats *Stats `json:"stats,omitempty"`
}

// Hello is the server's first line on a resumable session, sent once the
// session is admitted: the token to resume with, and the number of data
// frames the server has already consumed (0 for a new session; the
// client's replay position after a resume). Done reports that the parked
// session had in fact completed — the final Response line follows
// immediately and the client must not send any stream bytes.
type Hello struct {
	Token     string `json:"token"`
	NextFrame int64  `json:"next_frame"`
	Done      bool   `json:"done,omitempty"`
}

// Ack is one acknowledgement line, interleaved by the server between the
// client's frames on a resumable session: Ack data frames (cumulative)
// have been fully decoded into the analyzer, so the client may drop them
// from its replay ring.
type Ack struct {
	Ack int64 `json:"ack"`
}

// controlLine is the union shape of everything a server writes on the
// control channel (hello, acks, the final response), so a client can
// parse any line and classify it afterwards.
type controlLine struct {
	Ack          *int64         `json:"ack,omitempty"`
	Token        string         `json:"token,omitempty"`
	NextFrame    int64          `json:"next_frame,omitempty"`
	Done         bool           `json:"done,omitempty"`
	Result       *SessionResult `json:"result,omitempty"`
	Error        string         `json:"error,omitempty"`
	Code         ErrCode        `json:"code,omitempty"`
	RetryAfterMS int            `json:"retry_after_ms,omitempty"`
}

// SessionResult is the serializable image of a tempstream.ContextResult:
// every scalar of the analysis verbatim, and the unbounded per-miss
// arrays (window, stream states, stride flags, instances, reuse
// histogram) pinned by FNV-1a digests. Two ContextResults are equal
// field for field iff their SessionResults are equal, which is what the
// server-equivalence tests assert without shipping the window back.
type SessionResult struct {
	// Header carries the stream's totals as folded at Finish.
	Header trace.Header `json:"header"`
	// Window is the number of misses inside the analysis window.
	Window int `json:"window"`
	// States counts window misses per core.StreamState
	// (non-repetitive, new stream, recurring).
	States [3]int `json:"states"`
	// Strided counts window misses with stride-predictable addresses.
	Strided int `json:"strided"`
	// Instances is the number of top-level stream occurrences.
	Instances int `json:"instances"`
	// GrammarRules is the number of distinct temporal streams.
	GrammarRules int `json:"grammar_rules"`
	// MedianStreamLen is the length-weighted median stream length.
	MedianStreamLen float64 `json:"median_stream_len"`
	// StreamFrac is the fraction of window misses inside streams.
	StreamFrac float64 `json:"stream_frac"`
	// MPKI is misses per 1000 instructions over the whole stream.
	MPKI float64 `json:"mpki"`
	// WindowDigest pins the analysis window's records byte for byte.
	WindowDigest uint64 `json:"window_digest"`
	// StateDigest pins the per-miss stream-state and stride arrays.
	StateDigest uint64 `json:"state_digest"`
	// InstanceDigest pins the top-level instance list.
	InstanceDigest uint64 `json:"instance_digest"`
	// ReuseDigest pins the reuse-distance histogram's buckets.
	ReuseDigest uint64 `json:"reuse_digest"`
	// Prefetch carries the prefetcher counters when one was requested.
	Prefetch *prefetch.Result `json:"prefetch,omitempty"`
}

// ResultOf condenses a ContextResult into its serializable image. It is
// the single definition of "the session's result" — the server builds its
// response with it, and equivalence tests apply it to an in-process
// Runner.Run result to prove the wire path changes nothing.
//
// The per-miss arrays are read in one pass: for each window record it
// advances the window digest (the record's address, func id, CPU, class
// and supplier, 13 bytes little-endian) and the state digest (its stream
// state and stride flag, 2 bytes) as two inlined FNV-1a chains side by
// side, and counts the record's state and stride flag; the stream
// fraction comes from those counts. The instance and reuse digests hash
// their short lists the same way, 16 bytes per entry.
func ResultOf(cr *tempstream.ContextResult) *SessionResult {
	a := cr.Analysis
	r := &SessionResult{
		Header:          cr.Header,
		Window:          len(a.Misses),
		Instances:       len(a.Instances),
		GrammarRules:    a.GrammarRules(),
		MedianStreamLen: a.MedianStreamLength(),
		MPKI:            cr.Header.MPKI(),
		Prefetch:        cr.Prefetch,
	}

	// State and Strided run parallel to the window (core.Analysis).
	states, strided := a.State[:len(a.Misses)], a.Strided[:len(a.Misses)]
	win, st := uint64(fnvOffset), uint64(fnvOffset)
	for i := range a.Misses {
		m := &a.Misses[i]
		win = fnvWord(win, m.Addr, 8)
		win = fnvWord(win, uint64(m.Func), 2)
		win = fnvWord(win, uint64(m.CPU)|uint64(m.Class)<<8|uint64(m.Supplier)<<16, 3)
		var s uint64
		if strided[i] {
			s = 1
			r.Strided++
		}
		r.States[states[i]]++
		st = fnvWord(st, uint64(states[i])|s<<8, 2)
	}
	r.WindowDigest, r.StateDigest = win, st
	if n := float64(len(a.State)); n > 0 {
		r.StreamFrac = float64(r.States[core.NewStream])/n + float64(r.States[core.Recurring])/n
	}

	h := uint64(fnvOffset)
	for _, inst := range a.Instances {
		h = fnvWord(h, uint64(uint32(inst.RuleID))|uint64(uint32(inst.Occurrence))<<32, 8)
		h = fnvWord(h, uint64(uint32(inst.Pos))|uint64(uint32(inst.Len))<<32, 8)
	}
	r.InstanceDigest = h

	h = fnvOffset
	for _, b := range a.ReuseDist.Buckets() {
		h = fnvWord(h, math.Float64bits(b.Lo), 8)
		h = fnvWord(h, math.Float64bits(b.Weight), 8)
	}
	r.ReuseDigest = h
	return r
}

// FNV-1a, 64-bit (hash/fnv's New64a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord advances the FNV-1a hash h over the low n bytes of w, least
// significant first: the bytes hash/fnv would hash for w written
// little-endian.
func fnvWord(h, w uint64, n int) uint64 {
	for ; n > 0; n-- {
		h = (h ^ w&0xff) * fnvPrime
		w >>= 8
	}
	return h
}
