package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// synthMisses builds a deterministic pseudo-stream with the statistics
// that matter to the codec: block-aligned addresses with per-CPU locality
// (small deltas) plus occasional far jumps, all classes and suppliers.
func synthMisses(n, cpus int, seed int64) []trace.Miss {
	rng := rand.New(rand.NewSource(seed))
	cur := make([]uint64, cpus)
	for c := range cur {
		cur[c] = uint64(rng.Intn(1 << 20))
	}
	out := make([]trace.Miss, n)
	for i := range out {
		c := rng.Intn(cpus)
		switch rng.Intn(8) {
		case 0:
			cur[c] = uint64(rng.Intn(1 << 24)) // far jump
		case 1:
			cur[c] -= uint64(rng.Intn(int(min(cur[c], 64)) + 1)) // walk backward
		default:
			cur[c] += uint64(rng.Intn(8)) // local forward walk
		}
		out[i] = trace.Miss{
			Addr:     cur[c] << 6,
			Func:     trace.FuncID(rng.Intn(40)),
			CPU:      uint8(c),
			Class:    trace.MissClass(rng.Intn(int(trace.NumMissClasses))),
			Supplier: trace.Supplier(rng.Intn(int(trace.NumSuppliers))),
		}
	}
	return out
}

// encodeStream serializes misses with the given header and symbols.
func encodeStream(tb testing.TB, misses []trace.Miss, h trace.Header, funcs []wire.FuncMeta) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf, h.CPUs)
	for _, m := range misses {
		enc.Append(m)
	}
	enc.Finish(h)
	enc.SetSymbols(funcs)
	if err := enc.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// readAll decodes a whole self-contained stream the way file consumers
// do: Run into a materialized trace, then ExpectEOF.
func readAll(data []byte) (*trace.Trace, wire.Trailer, error) {
	dec := wire.NewDecoder(bytes.NewReader(data))
	t := &trace.Trace{}
	tr, err := dec.Run(t)
	if err == nil {
		err = dec.ExpectEOF()
	}
	return t, tr, err
}

func TestEncodeDecodeSynthetic(t *testing.T) {
	misses := synthMisses(10_000, 4, 7)
	h := trace.Header{Misses: len(misses), Instructions: 123456789, CPUs: 4}
	funcs := []wire.FuncMeta{
		{Name: "<unknown>", Category: trace.CatUnknown},
		{Name: "disp_getwork", Category: trace.CatScheduler},
		{Name: "sqlri_eval", Category: trace.CatDBInterpreter},
	}
	data := encodeStream(t, misses, h, funcs)

	tr, trailer, err := readAll(data)
	if err != nil {
		t.Fatalf("readAll: %v", err)
	}
	if !reflect.DeepEqual(tr.Misses, misses) {
		t.Errorf("decoded misses differ from input")
	}
	if tr.Instructions != h.Instructions || tr.CPUs != h.CPUs {
		t.Errorf("decoded trace header %d/%d, want %d/%d",
			tr.Instructions, tr.CPUs, h.Instructions, h.CPUs)
	}
	if trailer.Header != h {
		t.Errorf("trailer header %+v, want %+v", trailer.Header, h)
	}
	if !reflect.DeepEqual(trailer.Funcs, funcs) {
		t.Errorf("trailer funcs %+v, want %+v", trailer.Funcs, funcs)
	}
	st := trailer.SymbolTable()
	if got := st.Func(1).Name; got != "disp_getwork" {
		t.Errorf("static symtab Func(1) = %q", got)
	}
	if got := st.CategoryOf(2); got != trace.CatDBInterpreter {
		t.Errorf("static symtab CategoryOf(2) = %v", got)
	}
}

func TestEncodeDecodeEmptyStream(t *testing.T) {
	h := trace.Header{Misses: 0, Instructions: 42, CPUs: 16}
	data := encodeStream(t, nil, h, nil)
	tr, trailer, err := readAll(data)
	if err != nil {
		t.Fatalf("readAll: %v", err)
	}
	if tr.Len() != 0 || trailer.Header != h || len(trailer.Funcs) != 0 {
		t.Errorf("empty stream decoded to %d misses, trailer %+v", tr.Len(), trailer)
	}
}

func TestEncoderErrors(t *testing.T) {
	t.Run("close before finish", func(t *testing.T) {
		enc := wire.NewEncoder(&bytes.Buffer{}, 4)
		enc.Append(trace.Miss{})
		if err := enc.Close(); err != wire.ErrUnfinished {
			t.Errorf("Close without Finish: %v, want ErrUnfinished", err)
		}
	})
	t.Run("cpu out of range", func(t *testing.T) {
		enc := wire.NewEncoder(&bytes.Buffer{}, 2)
		enc.Append(trace.Miss{CPU: 5})
		enc.Finish(trace.Header{CPUs: 2})
		if err := enc.Close(); err == nil || !strings.Contains(err.Error(), "cpu") {
			t.Errorf("out-of-range cpu: %v", err)
		}
	})
	t.Run("append after finish", func(t *testing.T) {
		enc := wire.NewEncoder(&bytes.Buffer{}, 2)
		enc.Finish(trace.Header{CPUs: 2})
		enc.Append(trace.Miss{})
		if err := enc.Err(); err == nil {
			t.Errorf("Append after Finish not reported")
		}
	})
	t.Run("invalid cpu count", func(t *testing.T) {
		enc := wire.NewEncoder(&bytes.Buffer{}, 0)
		if enc.Err() == nil {
			t.Errorf("cpus=0 accepted")
		}
	})
}

// recordingSink notes what a decoder delivered.
type recordingSink struct {
	misses   []trace.Miss
	finishes []trace.Header
}

func (r *recordingSink) AppendBatch(ms []trace.Miss) { r.misses = append(r.misses, ms...) }
func (r *recordingSink) Finish(h trace.Header)       { r.finishes = append(r.finishes, h) }

// TestDecoderTruncation cuts a valid stream at every byte boundary: every
// prefix must produce an error (never a silent short stream, never a
// panic), the sink must never see Finish, and — because a prefix of a
// valid stream carries no wrong bytes — the error must classify as
// ErrTruncated, the class the ingest server's resume protocol treats as
// recoverable.
func TestDecoderTruncation(t *testing.T) {
	misses := synthMisses(500, 3, 11)
	h := trace.Header{Misses: len(misses), Instructions: 999, CPUs: 3}
	data := encodeStream(t, misses, h, []wire.FuncMeta{{Name: "<unknown>"}, {Name: "f", Category: trace.CatSync}})
	for cut := 0; cut < len(data); cut++ {
		var sink recordingSink
		_, err := wire.NewDecoder(bytes.NewReader(data[:cut])).Run(&sink)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrTruncated", cut, err)
		}
		if errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("prefix of %d bytes classified corrupt (%v); truncation must not accuse the producer", cut, err)
		}
		if len(sink.finishes) != 0 {
			t.Fatalf("prefix of %d bytes delivered Finish", cut)
		}
	}
}

// TestDecoderCorruption flips every byte of a valid stream in turn: each
// corruption must be detected (magic, frame kind, length, CRC, or record
// validation), never silently accepted or panicking, and must classify
// via errors.Is. A flip that enlarges a length varint may surface as
// truncation (the reader runs out of bytes); everything else is corrupt.
func TestDecoderCorruption(t *testing.T) {
	misses := synthMisses(300, 2, 13)
	h := trace.Header{Misses: len(misses), Instructions: 7, CPUs: 2}
	data := encodeStream(t, misses, h, nil)
	corrupt := make([]byte, len(data))
	for i := range data {
		copy(corrupt, data)
		corrupt[i] ^= 0xFF
		_, _, err := readAll(corrupt)
		if err == nil {
			t.Fatalf("flipping byte %d/%d went undetected", i, len(data))
		}
		if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("flipping byte %d: error %v wraps neither ErrCorrupt nor ErrTruncated", i, err)
		}
	}
}

// TestDecoderRejectsGarbageFrames hand-crafts structurally broken streams.
func TestDecoderRejectsGarbageFrames(t *testing.T) {
	valid := encodeStream(t, synthMisses(10, 2, 1), trace.Header{Misses: 10, Instructions: 1, CPUs: 2}, nil)
	cases := map[string][]byte{
		"empty":              {},
		"bad magic":          []byte("NOPE"),
		"magic only":         []byte("TSW1"),
		"data after trailer": append(append([]byte{}, valid...), valid[4:]...),
		"giant frame length": append([]byte("TSW1"), 'H', 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, data := range cases {
		if _, _, err := readAll(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEncoderRecords covers the record counter used for throughput stats.
func TestEncoderRecords(t *testing.T) {
	enc := wire.NewEncoder(&bytes.Buffer{}, 2)
	for i := 0; i < 100; i++ {
		enc.Append(trace.Miss{CPU: uint8(i % 2)})
	}
	if enc.Records() != 100 {
		t.Errorf("Records() = %d, want 100", enc.Records())
	}
	enc.Finish(trace.Header{Misses: 100, CPUs: 2})
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCompactness pins the format's reason to exist: real miss streams
// with per-CPU locality should cost a few bytes per record, far below the
// 14-byte in-memory Miss.
func TestCompactness(t *testing.T) {
	misses := synthMisses(50_000, 16, 3)
	data := encodeStream(t, misses, trace.Header{Misses: len(misses), CPUs: 16}, nil)
	perRecord := float64(len(data)) / float64(len(misses))
	t.Logf("%d records in %d bytes = %.2f bytes/record", len(misses), len(data), perRecord)
	if perRecord > 8 {
		t.Errorf("encoding averages %.2f bytes/record, want <= 8", perRecord)
	}
}

func ExampleFuncsOf() {
	fmt.Println(len(wire.FuncsOf(trace.NewStaticSymbolTable(nil))))
	// Output: 1
}
