package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/proto"
)

// FuzzRequestLine drives the negotiation path a connection's first bytes
// take: proto.ReadLine at proto.MaxLine, the Request JSON decode, and
// checkRequest. Nothing may panic; a line over the bound must be
// rejected; and an accepted request must carry a window in
// [1, maxWindow] and, when present, a bounded prefetcher.
func FuzzRequestLine(f *testing.F) {
	const maxWindow = 50000
	for _, req := range []Request{
		{},
		{Label: "apache/single-chip"},
		{Probe: true},
		{Analysis: core.Options{MaxMisses: -1}},
		{Analysis: core.Options{MaxMisses: 8000}},
		{Prefetch: &prefetch.Config{Depth: 8}},
		{Prefetch: &prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}},
		{Prefetch: &prefetch.Config{HistoryLen: 1 << 20, BufferBlocks: 1 << 18, PerCPU: true}},
		{Resume: &ResumeRequest{}},
		{Resume: &ResumeRequest{Token: "0123456789abcdef"}},
	} {
		line, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte("not json\n"))
	f.Add([]byte(strings.Repeat("x", proto.MaxLine+1) + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		line, err := proto.ReadLine(bufio.NewReader(bytes.NewReader(data)), proto.MaxLine)
		if nl := bytes.IndexByte(data, '\n'); nl > proto.MaxLine && !errors.Is(err, proto.ErrTooLarge) {
			t.Fatalf("a %d-byte line was not rejected as too large (err %v)", nl, err)
		}
		if err != nil {
			return
		}
		if len(line) > proto.MaxLine {
			t.Fatalf("ReadLine returned %d bytes over a %d bound", len(line), proto.MaxLine)
		}
		var req Request
		if json.Unmarshal(line, &req) != nil {
			return
		}
		if fail := checkRequest(&req, maxWindow); fail != nil {
			if fail.code != CodeBadRequest {
				t.Fatalf("rejection code %q, want %q", fail.code, CodeBadRequest)
			}
			return
		}
		if w := req.Analysis.MaxMisses; w < 1 || w > maxWindow {
			t.Fatalf("accepted window %d outside [1, %d]", w, maxWindow)
		}
		if pf := req.Prefetch; pf != nil && (pf.HistoryLen < 1 || pf.HistoryLen > MaxPrefetchHistory ||
			pf.BufferBlocks < 1 || pf.BufferBlocks > MaxPrefetchBuffer) {
			t.Fatalf("accepted an unbounded prefetcher %+v", *pf)
		}
	})
}

// linesOf splits data into the lines a connection's reader delivers:
// each \n-terminated line, then the error that ended the reads.
func linesOf(data []byte) []proto.Line {
	done := make(chan struct{})
	defer close(done)
	ch := proto.ReadLines(bytes.NewReader(data), done)
	var out []proto.Line
	for {
		l := <-ch
		out = append(out, l)
		if l.Err != nil {
			return out
		}
	}
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzControlLine drives a ResilientSession's handling of server lines
// with arbitrary ones: the first line is the hello of a handshake that
// replays the ring (acks, results and errors arriving mid-replay are
// taken there), and every later line goes through the ack, result and
// error handling of a live session. The two byte arguments shape the
// session: shape's low four bits are how many frames the ring retains
// and its bit 4 whether the session holds a resume token; trim is how
// many of those frames an earlier connection had acknowledged. Nothing
// may panic; the ring must keep Base ≤ Next and its numbering (no line
// adds or loses a frame number); an ack may only trim, to at most Next;
// and the replay must refuse a hello whose resume position lies outside
// [Base, Next], trimming nothing, and otherwise start from that position.
func FuzzControlLine(f *testing.F) {
	lines := func(vs ...any) []byte {
		var b []byte
		for _, v := range vs {
			line, err := json.Marshal(v)
			if err != nil {
				f.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		return b
	}
	ack := func(n int64) Ack { return Ack{Ack: n} }
	for _, seed := range [][]byte{
		lines(Hello{Token: "t", NextFrame: 0}, ack(1), ack(3), Response{Result: &SessionResult{Window: 9}}),
		lines(Hello{Token: "t", NextFrame: 2}, ack(-4), ack(1<<62)),
		lines(Hello{Token: "t", NextFrame: 99}),
		lines(Hello{Token: "t", NextFrame: -1}),
		lines(Hello{Token: "t", Done: true}, Response{Result: &SessionResult{}}),
		lines(Hello{}),
		lines(Response{Error: "busy", Code: CodeBusy, RetryAfterMS: 50}),
		lines(Hello{Token: "t"}, Response{Error: "gone", Code: CodeResumeUnknown}, Response{Error: "gone", Code: CodeResumeUnknown},
			Response{Error: "gone", Code: CodeResumeUnknown}),
		lines(Hello{Token: "t"}, Response{Error: "draining", Code: CodeDraining}, Response{Error: "x", Code: CodeStream}, Response{Error: "?"}),
	} {
		f.Add(byte(6), byte(2), seed)
	}
	f.Add(byte(0), byte(0), []byte("not json\n{\"ack\":\n"))

	f.Fuzz(func(t *testing.T, shape, trim byte, data []byte) {
		s := &ResilientSession{pol: RetryPolicy{}.withDefaults(), prefix: []byte("prefix")}
		for i := 0; i < int(shape&15); i++ {
			s.ring.Push([]byte{byte(i)})
		}
		s.ring.Trim(int64(trim & 15))
		if shape&16 != 0 {
			s.token = "resume-token"
		}
		next := s.ring.Next()
		check := func(what string) {
			t.Helper()
			if s.ring.Base() > s.ring.Next() || s.ring.Next() != next {
				t.Fatalf("%s: ring [%d, %d), numbering ended at %d", what, s.ring.Base(), s.ring.Next(), next)
			}
		}

		ls := linesOf(data)
		ch := make(chan proto.Line, len(ls))
		for _, l := range ls {
			ch <- l
		}
		hello, base := ls[0], s.ring.Base()
		ep := &connEpoch{conn: proto.DeadlineConn{Conn: discardConn{}}, lines: ch, done: make(chan struct{})}
		err := s.handshake(ep, []byte("request\n"))
		check("handshake")
		var h controlLine
		if hello.Err == nil && json.Unmarshal(hello.Data, &h) == nil && h.Error == "" && h.Token != "" && !h.Done {
			if h.NextFrame < base || h.NextFrame > next {
				if err == nil || s.ring.Base() != base {
					t.Fatalf("resume position %d outside [%d, %d]: err %v, base now %d", h.NextFrame, base, next, err, s.ring.Base())
				}
			} else if s.ring.Base() < h.NextFrame {
				t.Fatalf("replay from %d left the ring at base %d", h.NextFrame, s.ring.Base())
			}
		}

		// The rest of the lines, as a live session takes them.
		for len(ch) > 0 {
			l := <-ch
			before := s.ring.Base()
			err := s.take(l)
			check("take")
			var c controlLine
			if l.Err == nil && json.Unmarshal(l.Data, &c) == nil && c.Ack != nil {
				if want := max(before, min(*c.Ack, next)); s.ring.Base() != want {
					t.Fatalf("ack %d moved base %d to %d, want %d", *c.Ack, before, s.ring.Base(), want)
				}
			} else if s.ring.Base() != before {
				t.Fatalf("a line that is no ack moved base %d to %d", before, s.ring.Base())
			}
			if l.Err != nil && err == nil {
				t.Fatalf("transport error %v taken without error", l.Err)
			}
		}
	})
}
