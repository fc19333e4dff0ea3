package wire_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// splitFrames scans data into (magic, frames) with ReadMagic/ReadRawFrame,
// copying each frame out of the scratch buffer like a relay would.
func splitFrames(tb testing.TB, data []byte) (kinds []byte, frames [][]byte) {
	tb.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	if err := wire.ReadMagic(br); err != nil {
		tb.Fatalf("ReadMagic: %v", err)
	}
	var scratch []byte
	for {
		kind, raw, err := wire.ReadRawFrame(br, scratch)
		if err == io.EOF {
			return kinds, frames
		}
		if err != nil {
			tb.Fatalf("ReadRawFrame: %v", err)
		}
		scratch = raw
		kinds = append(kinds, kind)
		frames = append(frames, append([]byte(nil), raw...))
	}
}

func TestRawFramesRelayVerbatim(t *testing.T) {
	misses := synthMisses(20_000, 4, 11)
	h := trace.Header{Misses: len(misses), Instructions: 42, CPUs: 4}
	data := encodeStream(t, misses, h, nil)

	kinds, frames := splitFrames(t, data)
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want header+data+trailer at least", len(frames))
	}
	if kinds[0] != wire.KindHeader || kinds[len(kinds)-1] != wire.KindTrailer {
		t.Fatalf("frame kinds %q: want header first, trailer last", kinds)
	}
	for _, k := range kinds[1 : len(kinds)-1] {
		if k != wire.KindData {
			t.Fatalf("interior frame kind %c, want %c", k, wire.KindData)
		}
	}

	// Reassembling magic+frames must reproduce the stream byte for byte,
	// and the reassembly must decode to the original misses.
	var re bytes.Buffer
	re.Write(wire.MagicBytes())
	for _, f := range frames {
		re.Write(f)
	}
	if !bytes.Equal(re.Bytes(), data) {
		t.Fatalf("reassembled stream differs from original (%d vs %d bytes)", re.Len(), len(data))
	}
	tr, _, err := readAll(re.Bytes())
	if err != nil {
		t.Fatalf("decoding the reassembly: %v", err)
	}
	if !reflect.DeepEqual(tr.Misses, misses) {
		t.Fatal("reassembled stream decodes to different misses")
	}
}

func TestRawFrameErrors(t *testing.T) {
	misses := synthMisses(5_000, 2, 3)
	h := trace.Header{Misses: len(misses), CPUs: 2}
	data := encodeStream(t, misses, h, nil)

	t.Run("corrupt payload", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x10
		br := bufio.NewReader(bytes.NewReader(bad))
		if err := wire.ReadMagic(br); err != nil {
			t.Fatalf("ReadMagic: %v", err)
		}
		var err error
		for err == nil {
			_, _, err = wire.ReadRawFrame(br, nil)
		}
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("flipped bit: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("truncated mid-frame", func(t *testing.T) {
		br := bufio.NewReader(bytes.NewReader(data[:len(data)-3]))
		if err := wire.ReadMagic(br); err != nil {
			t.Fatalf("ReadMagic: %v", err)
		}
		var err error
		for err == nil {
			_, _, err = wire.ReadRawFrame(br, nil)
		}
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("truncated stream: got %v, want ErrTruncated", err)
		}
	})

	t.Run("clean eof at boundary", func(t *testing.T) {
		kinds, frames := splitFrames(t, data)
		_ = kinds
		// Stop exactly after the first two frames: the scanner must report
		// io.EOF, not a truncation.
		cut := 4 + len(frames[0]) + len(frames[1])
		br := bufio.NewReader(bytes.NewReader(data[:cut]))
		if err := wire.ReadMagic(br); err != nil {
			t.Fatalf("ReadMagic: %v", err)
		}
		var err error
		n := 0
		for {
			_, _, err = wire.ReadRawFrame(br, nil)
			if err != nil {
				break
			}
			n++
		}
		if err != io.EOF || n != 2 {
			t.Fatalf("got %d frames, err %v; want 2 frames then io.EOF", n, err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		br := bufio.NewReader(bytes.NewReader([]byte("NOPE....")))
		if err := wire.ReadMagic(br); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
		}
	})
}
