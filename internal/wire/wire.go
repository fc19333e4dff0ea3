// Package wire defines the compact, self-describing binary format for
// classified miss streams: the on-disk shape of `tstrace -record` archives
// and the on-wire shape of the tsserved ingest protocol. The codec is a
// pair of trace.Sink adapters — Encoder consumes a stream and writes
// frames, Decoder reads frames and drives any Sink — so the same format
// serves persistence (record/replay) and the network without either end
// materializing the trace.
//
// # Format
//
//	stream  := magic "TSW1"  header-frame  data-frame*  trailer-frame
//	frame   := kind (1 byte)  payloadLen (uvarint)  payload  crc32c (4 bytes LE)
//
//	header-frame  (kind 'H'):
//	    version uvarint | cpus uvarint
//	data-frame    (kind 'D'):
//	    count uvarint | count * record
//	record:
//	    key uvarint            -- cpu<<4 | class<<2 | supplier
//	    func uvarint           -- FuncID
//	    blockDelta varint      -- zig-zag delta of Addr>>6 vs. the previous
//	                              record on the same CPU (per-CPU delta
//	                              chains keep each processor's spatial
//	                              locality intact under interleaving)
//	trailer-frame (kind 'T'):
//	    misses uvarint | instructions uvarint | cpus uvarint
//	    | funcCount uvarint | funcCount * (category byte, nameLen uvarint, name)
//
// The header carries what a consumer needs before the first record (the
// processor count sizes per-CPU analysis state); the trailer carries what
// only exists at end of stream: the trace.Header totals and the FuncID
// symbol table (function names and Table-2 categories, for module
// attribution of replayed traces). Every frame's payload is covered by a
// CRC-32C, so truncation and corruption are detected per frame; the
// trailer additionally pins the total record count, so a stream that ends
// cleanly but short is rejected too. One reader parses frames for both
// the Decoder and relays (ReadRawFrame); a payload length takes at most 5
// uvarint bytes.
//
// Addresses are block-aligned (as trace.Miss documents), so records carry
// block numbers: one varint, usually one byte, per address. A typical
// frame holds frameRecords records in a few KB.
package wire

import (
	"errors"
	"hash/crc32"

	"repro/internal/trace"
)

// Decode failure kinds. Every decoder error wraps exactly one of these,
// so consumers (the ingest server's retry classification, the chaos
// tests) can distinguish a stream that stopped short from one whose
// bytes are wrong without string matching:
//
//   - ErrTruncated: the stream ended (or the transport failed) before
//     the trailer — mid-frame EOF, a reset connection, a missing header.
//     The bytes that did arrive were consistent.
//   - ErrCorrupt: the bytes are wrong — CRC mismatch, malformed varints,
//     out-of-range fields, counts that disagree. Retrying the same bytes
//     would fail again; re-transmitting might not (in-flight corruption
//     is caught by the frame CRCs).
var (
	ErrTruncated = errors.New("truncated stream")
	ErrCorrupt   = errors.New("corrupt stream")
)

var magic = [4]byte{'T', 'S', 'W', '1'}

const version = 1

// Frame kinds.
const (
	kindHeader  = 'H'
	kindData    = 'D'
	kindTrailer = 'T'
)

// frameRecords is the encoder's records-per-frame flush threshold: large
// enough to amortize the frame overhead (6 bytes + one write call) to
// noise, small enough that a consumer sees records (and a producer sees
// backpressure) with bounded latency.
const frameRecords = 4096

// Decoder hard limits: corrupt or adversarial input must never provoke a
// huge allocation, so every length field is bounded before use.
const (
	maxFramePayload = 1 << 24 // 16 MB, far above any encoder-produced frame
	maxCPUs         = 256     // trace.Miss.CPU is a uint8
	maxFuncs        = 1 << 16 // trace.FuncID is a uint16
	maxNameLen      = 4096
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on the
// platforms we run on).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta is what the stream header declares before the first record.
type Meta struct {
	Version int
	CPUs    int
}

// FuncMeta is one symbol-table entry as serialized in the trailer: the
// name and category of a FuncID, without the simulator-side code region.
type FuncMeta struct {
	Name     string
	Category trace.Category
}

// Trailer is the end-of-stream summary: the window totals and the symbol
// table (possibly empty — network sessions don't ship symbols).
type Trailer struct {
	Header trace.Header
	Funcs  []FuncMeta
}

// SymbolTable rebuilds a lookup-only trace.SymbolTable from the trailer's
// function descriptors, for module attribution of replayed streams.
func (t Trailer) SymbolTable() *trace.SymbolTable {
	if len(t.Funcs) == 0 {
		return trace.NewStaticSymbolTable(nil)
	}
	funcs := make([]trace.Func, len(t.Funcs))
	for i, f := range t.Funcs {
		funcs[i] = trace.Func{ID: trace.FuncID(i), Name: f.Name, Category: f.Category}
	}
	return trace.NewStaticSymbolTable(funcs)
}

// FuncsOf extracts the serializable symbol-table entries of st, indexed by
// FuncID — the encoder-side companion of Trailer.SymbolTable.
func FuncsOf(st *trace.SymbolTable) []FuncMeta {
	funcs := st.Funcs()
	out := make([]FuncMeta, len(funcs))
	for i, f := range funcs {
		out[i] = FuncMeta{Name: f.Name, Category: f.Category}
	}
	return out
}
