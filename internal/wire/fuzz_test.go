package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// FuzzDecoder feeds arbitrary bytes to the decoder: it must never panic
// and never over-allocate, and on success its bookkeeping must be
// self-consistent (delivered records match the trailer, exactly one
// Finish). The relay loop must agree with it: on every input the
// decoder accepts, the relay reads every frame up to the trailer
// verbatim, and where both fail on the same frame, they fail with the
// same error class.
func FuzzDecoder(f *testing.F) {
	// Seed with valid streams of varying shapes so mutation explores the
	// format's interior, not just the magic check.
	f.Add(encodeStream(f, nil, trace.Header{CPUs: 1}, nil))
	f.Add(encodeStream(f, synthMisses(64, 2, 1), trace.Header{Misses: 64, Instructions: 77, CPUs: 2},
		[]wire.FuncMeta{{Name: "<unknown>"}, {Name: "mutex_enter", Category: trace.CatSync}}))
	f.Add(encodeStream(f, synthMisses(5000, 16, 2), trace.Header{Misses: 5000, Instructions: 1 << 40, CPUs: 16}, nil))
	f.Add([]byte("TSW1"))
	f.Add([]byte{})
	// A data frame whose length takes 6 and 11 bytes: both corrupt, as
	// the relay always read them.
	f.Add(withLengthForm(f, 6))
	f.Add(withLengthForm(f, 11))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sink recordingSink
		trailer, err := wire.NewDecoder(bytes.NewReader(data)).Run(&sink)
		off, relayErr := relay(t, data)
		if err != nil {
			if len(sink.finishes) != 0 {
				t.Fatalf("decoder delivered Finish despite error %v", err)
			}
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error %v wraps neither ErrTruncated nor ErrCorrupt", err)
			}
			// The decoder reached the relay's failing frame when it
			// decodes every frame before it: cut there, the stream fails
			// only for ending early.
			if relayErr != nil && class(err) != class(relayErr) {
				_, prefixErr := wire.NewDecoder(bytes.NewReader(data[:off])).Run(trace.Discard{})
				if class(prefixErr) == "truncated" {
					t.Fatalf("frame at byte %d: decoder error %v (%s), relay error %v (%s)",
						off, err, class(err), relayErr, class(relayErr))
				}
			}
			return
		}
		if relayErr != nil {
			t.Fatalf("decoder accepts the stream; the relay refuses the frame at byte %d: %v", off, relayErr)
		}
		if len(sink.finishes) != 1 {
			t.Fatalf("successful decode delivered %d Finish calls", len(sink.finishes))
		}
		if sink.finishes[0] != trailer.Header {
			t.Fatalf("Finish header %+v != trailer %+v", sink.finishes[0], trailer.Header)
		}
		if len(sink.misses) != trailer.Header.Misses {
			t.Fatalf("delivered %d records, trailer says %d", len(sink.misses), trailer.Header.Misses)
		}
		for i, m := range sink.misses {
			if m.Class >= trace.NumMissClasses || m.Supplier >= trace.NumSuppliers ||
				int(m.CPU) >= trailer.Header.CPUs {
				t.Fatalf("record %d out of bounds: %+v", i, m)
			}
		}
	})
}

// FuzzReadRawFrame runs the gateway's relay loop over arbitrary bytes:
// nothing may panic, every error must be io.EOF or wrap ErrTruncated or
// ErrCorrupt, and relay's own checks must hold.
func FuzzReadRawFrame(f *testing.F) {
	f.Add(encodeStream(f, nil, trace.Header{CPUs: 1}, nil))
	f.Add(encodeStream(f, synthMisses(64, 2, 1), trace.Header{Misses: 64, Instructions: 77, CPUs: 2},
		[]wire.FuncMeta{{Name: "<unknown>"}, {Name: "mutex_enter", Category: trace.CatSync}}))
	f.Add(encodeStream(f, synthMisses(5000, 16, 2), trace.Header{Misses: 5000, Instructions: 1 << 40, CPUs: 16}, nil))
	f.Add(binary.AppendUvarint([]byte("TSW1D"), wire.MaxFramePayload+1))
	f.Add([]byte("TSW1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := relay(t, data); err != nil && class(err) == "unclassified" {
			t.Fatalf("relay error %v is unclassified", err)
		}
	})
}

// relay runs the gateway's relay loop over data — ReadMagic, then
// ReadRawFrame until the trailer — and fails t unless every frame it
// reads is the input's bytes verbatim, within the frame bound, so a
// relay forwards exactly what it read. It returns the offset of the
// frame it stopped at (0 when the magic failed) and the error that
// stopped it, nil at the trailer.
func relay(t *testing.T, data []byte) (int, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	if err := wire.ReadMagic(br); err != nil {
		return 0, err
	}
	off := 4
	var scratch []byte
	for {
		kind, raw, err := wire.ReadRawFrame(br, scratch)
		if err != nil {
			return off, err
		}
		scratch = raw
		size, n := binary.Uvarint(raw[1:])
		if n <= 0 || size > wire.MaxFramePayload || len(raw) != 1+n+int(size)+4 {
			t.Fatalf("frame of %d bytes declares payload %d (uvarint %d bytes), bound %d",
				len(raw), size, n, wire.MaxFramePayload)
		}
		if raw[0] != kind || !bytes.Equal(raw, data[off:off+len(raw)]) {
			t.Fatalf("frame at offset %d is not the input verbatim", off)
		}
		off += len(raw)
		if kind == wire.KindTrailer {
			return off, nil
		}
	}
}

// class names an error's failure class. A relay's io.EOF (the stream
// ended on a frame boundary before the trailer) is truncation.
func class(err error) string {
	switch {
	case err == io.EOF || errors.Is(err, wire.ErrTruncated):
		return "truncated"
	case errors.Is(err, wire.ErrCorrupt):
		return "corrupt"
	}
	return "unclassified"
}

// withLengthForm returns a valid stream whose first data frame's length
// is re-encoded as an n-byte uvarint: the minimal form padded with
// continuation bytes, the same value.
func withLengthForm(tb testing.TB, n int) []byte {
	data := encodeStream(tb, synthMisses(64, 2, 1), trace.Header{Misses: 64, Instructions: 77, CPUs: 2}, nil)
	_, frames := splitFrames(tb, data)
	d := frames[1]
	size, m := binary.Uvarint(d[1:])
	out := append(wire.MagicBytes(), frames[0]...)
	out = append(out, d[0])
	for i := 0; i < n-1; i++ {
		out = append(out, byte(size>>(7*i))&0x7f|0x80)
	}
	out = append(out, byte(size>>(7*(n-1))))
	out = append(out, d[1+m:]...)
	for _, f := range frames[2:] {
		out = append(out, f...)
	}
	return out
}
