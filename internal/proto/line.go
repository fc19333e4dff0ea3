// Package proto holds the session-protocol mechanics shared by the ingest
// server, its resilient client, and the tsgate gateway: the daemons'
// front door (Front: accept, drain, close), the bounded control-line
// codec, deadline-armed connections, resume tokens, the lingering close,
// the parking lot of interrupted sessions (Lot), and the replay ring of
// unacknowledged frames (Ring). It moves lines and frames; the JSON
// shapes they carry belong to internal/server.
package proto

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// MaxLine bounds a negotiation line: a request is a small JSON object, so
// anything larger is a confused or hostile client.
const MaxLine = 64 << 10

// ErrTooLarge is ReadLine's error for a line longer than its limit.
var ErrTooLarge = fmt.Errorf("request exceeds %d bytes", MaxLine)

// ReadLine reads one \n-terminated line of at most limit bytes without
// buffering an unbounded amount. The terminator is not returned.
func ReadLine(br *bufio.Reader, limit int) ([]byte, error) {
	var line []byte
	for len(line) <= limit {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == '\n' {
			return line, nil
		}
		line = append(line, b)
	}
	return nil, ErrTooLarge
}

// LineWriter writes control lines, each flushed under its own write
// deadline, so a dead or wedged peer can never pin the writer.
type LineWriter struct {
	conn    net.Conn
	bw      *bufio.Writer
	enc     *json.Encoder
	timeout time.Duration
}

// NewLineWriter writes lines to conn, bounding each by timeout.
func NewLineWriter(conn net.Conn, timeout time.Duration) *LineWriter {
	bw := bufio.NewWriter(conn)
	return &LineWriter{conn: conn, bw: bw, enc: json.NewEncoder(bw), timeout: timeout}
}

// WriteJSON writes v as one JSON line.
func (w *LineWriter) WriteJSON(v any) error {
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteRaw writes an already \n-terminated line verbatim.
func (w *LineWriter) WriteRaw(line []byte) error {
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	if _, err := w.bw.Write(line); err != nil {
		return err
	}
	return w.bw.Flush()
}

// DeadlineConn arms a fresh deadline before every Read and Write (a zero
// timeout leaves that direction unbounded), so each operation — request
// line, stream frame, response read — is bounded without any call site
// managing deadlines itself.
type DeadlineConn struct {
	net.Conn
	ReadTimeout, WriteTimeout time.Duration
}

func (c *DeadlineConn) Read(p []byte) (int, error) {
	if c.ReadTimeout > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.ReadTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *DeadlineConn) Write(p []byte) (int, error) {
	if c.WriteTimeout > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.WriteTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// NewToken mints a resume token: 128 random bits, so one client cannot
// guess (and so steal or corrupt) another's session.
func NewToken() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("proto: reading random token: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Line is one line read by ReadLines (terminator included), or the read
// error that ended the reader.
type Line struct {
	Data []byte
	Err  error
}

// ReadLines starts a connection's reader goroutine: it sends every
// \n-terminated line read from r, then the error that stopped the reads,
// and exits — early, once done is closed, even if nobody drains the
// channel. The owner stops it by closing the connection and done. The
// buffer lets the acks a peer sends while the consumer is busy writing a
// frame queue up without stalling the reader.
func ReadLines(r io.Reader, done <-chan struct{}) <-chan Line {
	ch := make(chan Line, 64)
	go func() {
		br := bufio.NewReader(r)
		for {
			data, err := br.ReadBytes('\n')
			if err != nil {
				data = nil
			}
			select {
			case ch <- Line{Data: data, Err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return ch
}

// Lingering-close bounds: how long, and how many bytes, a closing end
// keeps reading from a peer that has not stopped sending.
const (
	LingerTime  = 2 * time.Second
	lingerBytes = 4 << 20
)

// SettleTime bounds how long a writer whose write failed waits for its
// reader to report what the peer sent before the failure. A peer's reply
// always precedes the reset that fails the write, so the wait only has to
// cover the reader goroutine being scheduled; it runs out in full only
// when the connection is still open (a write that timed out).
const SettleTime = 500 * time.Millisecond

// Close ends conn with a lingering close: half-close the write side (the
// peer reads everything written, then EOF), read and discard what the
// peer still sends — until it closes, lingerBytes pass, LingerTime
// elapses, or ctx is cancelled — and only then close. Closing outright
// with unread input makes the kernel answer with RST, which races the
// final reply line to the peer: a client still streaming sees its write
// fail and may never read the rejection it was sent.
func Close(ctx context.Context, conn net.Conn) error {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		conn.SetReadDeadline(time.Now().Add(LingerTime))
		stop := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })
		io.CopyN(io.Discard, conn, lingerBytes)
		stop()
	}
	return conn.Close()
}
