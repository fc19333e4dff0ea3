package proto

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReadLine(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("first\n" + strings.Repeat("x", 8) + "\n"))
	if line, err := ReadLine(br, 8); err != nil || string(line) != "first" {
		t.Fatalf("ReadLine = %q, %v; want \"first\"", line, err)
	}
	if line, err := ReadLine(br, 8); err != nil || len(line) != 8 {
		t.Fatalf("line of exactly the limit: %q, %v", line, err)
	}
	if _, err := ReadLine(br, 8); err != io.EOF {
		t.Errorf("ReadLine at end = %v, want io.EOF", err)
	}

	br = bufio.NewReader(strings.NewReader(strings.Repeat("x", 9) + "\n"))
	if _, err := ReadLine(br, 8); !errors.Is(err, ErrTooLarge) {
		t.Errorf("line over the limit: err = %v, want ErrTooLarge", err)
	}
	br = bufio.NewReader(strings.NewReader(strings.Repeat("x", MaxLine+1)))
	if _, err := ReadLine(br, MaxLine); err != ErrTooLarge {
		t.Errorf("unterminated line over MaxLine: err = %v, want ErrTooLarge", err)
	}
}

// recorder collects a Lot's callbacks in order.
type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) add(ev string) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.events)
}

func newRecordingLot(grace time.Duration) (*Lot[string], *recorder) {
	rec := &recorder{}
	l := NewLot(grace,
		func(v string) { rec.add("release " + v) },
		func(v string) { rec.add("expired " + v) })
	return l, rec
}

func TestLotTakeDisarms(t *testing.T) {
	l, rec := newRecordingLot(50 * time.Millisecond)
	l.Park("tok", "a")
	if v, ok := l.Take("tok"); !ok || v != "a" {
		t.Fatalf("Take = %q, %v", v, ok)
	}
	if _, ok := l.Take("tok"); ok {
		t.Errorf("second Take found the value again")
	}
	time.Sleep(150 * time.Millisecond)
	if ev := rec.snapshot(); len(ev) != 0 {
		t.Errorf("taken value was released or expired: %v", ev)
	}
}

func TestLotExpiryReleasesBeforeCounting(t *testing.T) {
	l, rec := newRecordingLot(time.Millisecond)
	l.Park("tok", "a")
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("park never expired: %v", rec.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if ev := rec.snapshot(); !slices.Equal(ev, []string{"release a", "expired a"}) {
		t.Errorf("expiry callbacks %v, want release before expired", ev)
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d after expiry, want 0", l.Len())
	}
}

// TestLotStaleTimer replays the race the generation guard exists for: a
// grace timer that fired just as its value was taken (so Stop lost) runs
// after the value was parked again under the same token. It must not
// expire the re-parked value.
func TestLotStaleTimer(t *testing.T) {
	l, rec := newRecordingLot(time.Hour)
	defer l.Close()
	l.Park("tok", "a")
	l.mu.Lock()
	stale := l.spots["tok"].gen
	l.mu.Unlock()
	v, _ := l.Take("tok")
	l.Park("tok", v)
	l.expire("tok", stale)
	if ev := rec.snapshot(); len(ev) != 0 {
		t.Fatalf("stale timer released or expired the re-parked value: %v", ev)
	}
	if v, ok := l.Take("tok"); !ok || v != "a" {
		t.Errorf("re-parked value gone after a stale timer: %q, %v", v, ok)
	}
}

func TestLotCloseReturnsEveryEntry(t *testing.T) {
	l, rec := newRecordingLot(time.Hour)
	for _, v := range []string{"a", "b", "c"} {
		l.Park("tok-"+v, v)
	}
	got := l.Close()
	slices.Sort(got)
	if !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("Close returned %v, want every parked value", got)
	}
	ev := rec.snapshot()
	slices.Sort(ev)
	if !slices.Equal(ev, []string{"release a", "release b", "release c"}) {
		t.Errorf("Close callbacks %v, want each value released once (and none expired)", ev)
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d after Close", l.Len())
	}
}

func TestLotParkAfterCloseRefuses(t *testing.T) {
	l, rec := newRecordingLot(time.Hour)
	l.Close()
	if l.Park("tok", "late") {
		t.Errorf("Park after Close accepted the value")
	}
	if ev := rec.snapshot(); !slices.Equal(ev, []string{"release late"}) {
		t.Errorf("refused park callbacks %v, want the value released", ev)
	}
	if _, ok := l.Take("tok"); ok {
		t.Errorf("refused value is takeable")
	}
}

// frameBytes is frame seq's distinct payload.
func frameBytes(seq int64) []byte {
	return bytes.Repeat([]byte{byte(seq), byte(seq >> 8)}, 16+int(seq%7))
}

func TestRingTrim(t *testing.T) {
	var r Ring
	for seq := int64(0); seq < 10; seq++ {
		r.Push(frameBytes(seq))
	}
	r.Trim(4)
	if r.Base() != 4 || r.Len() != 6 || r.Next() != 10 {
		t.Fatalf("after Trim(4): base %d len %d next %d, want 4 6 10", r.Base(), r.Len(), r.Next())
	}
	r.Trim(2) // a stale, lower ack
	if r.Base() != 4 {
		t.Errorf("stale ack moved base to %d", r.Base())
	}
	r.Trim(99) // acks past the end clamp
	if r.Base() != 10 || r.Len() != 0 {
		t.Errorf("after Trim(99): base %d len %d, want 10 0", r.Base(), r.Len())
	}
	r.Push(frameBytes(10))
	if r.Next() != 11 || !bytes.Equal(r.Frame(10), frameBytes(10)) {
		t.Errorf("push after full trim: next %d frame %v", r.Next(), r.Frame(10))
	}
	r.Drop()
	if r.Base() != 11 || r.Len() != 0 {
		t.Errorf("after Drop: base %d len %d, want 11 0", r.Base(), r.Len())
	}
}

// TestRingReplayFromAnyAck checks every acked position: the frames from
// it on replay byte for byte, even after later pushes reuse the buffers
// the trim recycled.
func TestRingReplayFromAnyAck(t *testing.T) {
	const n = 12
	for ack := int64(0); ack <= n; ack++ {
		var r Ring
		for seq := int64(0); seq < n; seq++ {
			r.Push(frameBytes(seq))
		}
		r.Trim(ack)
		for seq := int64(n); seq < n+ack; seq++ {
			r.Push(frameBytes(seq)) // recycles the trimmed buffers
		}
		for seq := r.Base(); seq < r.Next(); seq++ {
			if !bytes.Equal(r.Frame(seq), frameBytes(seq)) {
				t.Fatalf("ack %d: frame %d replays %v, want %v", ack, seq, r.Frame(seq), frameBytes(seq))
			}
		}
	}
}

func TestRingSteadyStateAllocatesNothing(t *testing.T) {
	var r Ring
	p := bytes.Repeat([]byte{7}, 16<<10)
	step := func() {
		r.Push(p)
		r.Trim(r.Next() - 4) // a four-frame in-flight window
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("steady push/ack allocates %.1f times per frame, want 0", allocs)
	}
}

// TestCloseLingers: a peer that keeps streaming after the reply — the
// early-rejection shape — sees no reset while it writes and still reads
// the reply line afterwards.
func TestCloseLingers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ReadLine(bufio.NewReader(conn), MaxLine)
		NewLineWriter(conn, time.Second).WriteRaw([]byte("rejected\n"))
		Close(context.Background(), conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("request\n")); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64<<10)
	for sent := 0; sent < lingerBytes/16; sent += len(chunk) {
		if _, err := conn.Write(chunk); err != nil {
			t.Fatalf("write after %d streamed bytes: %v (the closing end reset the connection)", sent, err)
		}
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil || string(line) != "rejected\n" {
		t.Errorf("reply = %q, %v; want the rejection line", line, err)
	}
}

// TestCloseCancel: cancelling the context cuts a linger short even when
// the peer neither closes nor sends.
func TestCloseCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	Close(ctx, conn)
	if d := time.Since(start); d >= LingerTime {
		t.Errorf("cancelled linger took %v, want well under LingerTime (%v)", d, LingerTime)
	}
}
