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
// Finish).
func FuzzDecoder(f *testing.F) {
	// Seed with valid streams of varying shapes so mutation explores the
	// format's interior, not just the magic check.
	f.Add(encodeStream(f, nil, trace.Header{CPUs: 1}, nil))
	f.Add(encodeStream(f, synthMisses(64, 2, 1), trace.Header{Misses: 64, Instructions: 77, CPUs: 2},
		[]wire.FuncMeta{{Name: "<unknown>"}, {Name: "mutex_enter", Category: trace.CatSync}}))
	f.Add(encodeStream(f, synthMisses(5000, 16, 2), trace.Header{Misses: 5000, Instructions: 1 << 40, CPUs: 16}, nil))
	f.Add([]byte("TSW1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var sink recordingSink
		trailer, err := wire.NewDecoder(bytes.NewReader(data)).Run(&sink)
		if err != nil {
			if len(sink.finishes) != 0 {
				t.Fatalf("decoder delivered Finish despite error %v", err)
			}
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error %v wraps neither ErrTruncated nor ErrCorrupt", err)
			}
			return
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
// ReadMagic, then ReadRawFrame until the trailer. Nothing may panic,
// every error must be io.EOF or wrap ErrTruncated or ErrCorrupt, no
// frame may carry a payload above the frame bound, and every frame must
// be the input's bytes verbatim, so a relay forwards exactly what it
// read.
func FuzzReadRawFrame(f *testing.F) {
	f.Add(encodeStream(f, nil, trace.Header{CPUs: 1}, nil))
	f.Add(encodeStream(f, synthMisses(64, 2, 1), trace.Header{Misses: 64, Instructions: 77, CPUs: 2},
		[]wire.FuncMeta{{Name: "<unknown>"}, {Name: "mutex_enter", Category: trace.CatSync}}))
	f.Add(encodeStream(f, synthMisses(5000, 16, 2), trace.Header{Misses: 5000, Instructions: 1 << 40, CPUs: 16}, nil))
	f.Add(binary.AppendUvarint([]byte("TSW1D"), wire.MaxFramePayload+1))
	f.Add([]byte("TSW1"))
	f.Add([]byte{})

	classified := func(err error) bool {
		return err == io.EOF || errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrCorrupt)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		if err := wire.ReadMagic(br); err != nil {
			if !classified(err) {
				t.Fatalf("ReadMagic error %v is unclassified", err)
			}
			return
		}
		off := 4
		var scratch []byte
		for {
			kind, raw, err := wire.ReadRawFrame(br, scratch)
			if err != nil {
				if !classified(err) {
					t.Fatalf("ReadRawFrame error %v is unclassified", err)
				}
				return
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
				return
			}
		}
	})
}
