package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// claimBound is what reading a frame whose header claims the full frame
// bound, followed by nothing, may allocate.
const claimBound = 256 << 10

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// truncatedClaim is a data-frame header claiming a MaxFramePayload
// payload, with none of it following.
func truncatedClaim() []byte {
	return binary.AppendUvarint([]byte{wire.KindData}, wire.MaxFramePayload)
}

// TestReadRawFrameTruncatedClaim pins the relay's frame read to the bytes
// that arrive: a header claiming 16 MiB followed by EOF is truncation,
// and reading it must not allocate the claim.
func TestReadRawFrameTruncatedClaim(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(truncatedClaim()))
	var err error
	n := bytesAllocated(func() { _, _, err = wire.ReadRawFrame(br, nil) })
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("truncated claim: got %v, want ErrTruncated", err)
	}
	if n >= claimBound {
		t.Fatalf("truncated 16 MiB claim allocated %d bytes, want under %d", n, claimBound)
	}
}

// TestDecoderTruncatedClaim is the same pin for the Decoder behind
// tsserved sessions, the store and replays: after a valid header, a data
// frame claiming 16 MiB followed by EOF must not allocate the claim.
func TestDecoderTruncatedClaim(t *testing.T) {
	valid := encodeStream(t, nil, trace.Header{CPUs: 2}, nil)
	_, frames := splitFrames(t, valid)
	stream := append(append(wire.MagicBytes(), frames[0]...), truncatedClaim()...)
	var err error
	n := bytesAllocated(func() {
		var sink recordingSink
		_, err = wire.NewDecoder(bytes.NewReader(stream)).Run(&sink)
	})
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("truncated claim: got %v, want ErrTruncated", err)
	}
	if n >= claimBound {
		t.Fatalf("truncated 16 MiB claim allocated %d bytes, want under %d", n, claimBound)
	}
}

// rawFrame frames payload as kind: length, payload, CRC-32C.
func rawFrame(kind byte, payload []byte) []byte {
	f := binary.AppendUvarint([]byte{kind}, uint64(len(payload)))
	f = append(f, payload...)
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// TestBoundedReadsDeliverWholeFrames checks the stepped read on a frame
// several steps long: a 300 KB data frame relays verbatim and decodes to
// its records.
func TestBoundedReadsDeliverWholeFrames(t *testing.T) {
	const records = 100_000
	payload := binary.AppendUvarint(nil, records)
	for i := 0; i < records; i++ {
		payload = append(payload, byte(i%4)<<4, 0, 2) // cpu i%4, func 0, block +1
	}
	trailer := binary.AppendUvarint(nil, records)
	trailer = append(trailer, 0, 4, 0) // instructions, cpus, no symbols
	header := []byte{1, 4}             // version, cpus
	frames := [][]byte{rawFrame(wire.KindHeader, header), rawFrame(wire.KindData, payload), rawFrame(wire.KindTrailer, trailer)}
	data := wire.MagicBytes()
	for _, f := range frames {
		data = append(data, f...)
	}
	_, got := splitFrames(t, data)
	if len(got) != len(frames) {
		t.Fatalf("relay read %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d differs from the stream", i)
		}
	}
	var sink recordingSink
	if _, err := wire.NewDecoder(bytes.NewReader(data)).Run(&sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.misses) != records {
		t.Fatalf("decoded %d records, want %d", len(sink.misses), records)
	}
	if last := sink.misses[records-1]; last.CPU != 3 || last.Addr != records/4<<6 {
		t.Fatalf("last record %+v, want cpu 3 block %d", last, records/4)
	}
}

// TestDecoderBatchSizedOnce pins what one decode pass allocates. The
// decoded-frame batch is sized once from the first data frame's count
// (capped at the encoder's 4096-record frame), so a fresh Decoder's pass
// over a 20,000-record stream into trace.Discard takes 8 allocations and
// about 146 KB: the batch, the 64 KiB read buffer, the frame buffer, the
// delta chain and the decoder. A batch grown by append from empty takes
// it to 23 allocations and 339 KB, over both bounds. (The race
// detector's instrumentation adds about 80 KB.)
func TestDecoderBatchSizedOnce(t *testing.T) {
	const maxAllocs, maxBytes = 12, 256 << 10
	misses := synthMisses(20000, 4, 1)
	data := encodeStream(t, misses, trace.Header{Misses: len(misses), CPUs: 4}, nil)
	pass := func() {
		if _, err := wire.NewDecoder(bytes.NewReader(data)).Run(trace.Discard{}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, pass); allocs > maxAllocs {
		t.Errorf("decode pass: %.0f allocations, want at most %d", allocs, maxAllocs)
	}
	if n := bytesAllocated(pass); n > maxBytes {
		t.Errorf("decode pass: %d bytes allocated, want at most %d", n, maxBytes)
	}
}
