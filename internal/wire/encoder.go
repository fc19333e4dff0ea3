package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/trace"
)

// ErrUnfinished is returned by Close when the stream's producer never
// called Finish: the trailer cannot be written, and a decoder would (by
// design) reject the truncated stream.
var ErrUnfinished = errors.New("wire: stream closed before Finish")

// Encoder serializes a classified miss stream into the wire format. It
// implements trace.Sink, so it plugs directly into any producer of the
// streaming data path (workload.RunStream, trace.Tee, ...): AppendBatch
// and Append buffer records and emit a framed chunk every frameRecords
// records, Finish
// latches the stream header, and Close writes the trailer and reports the
// first error encountered.
//
// The Sink interface carries no errors, so a write failure mid-stream
// flips the Encoder into an inert error state: further Appends are
// dropped, and the error surfaces from Err and Close. Producers that
// stream for a long time can poll Err to abort early.
//
// Between Finish and Close the caller may attach the symbol table with
// SetSymbols — the table often only becomes available after the producing
// run returns (workload.RunStream hands it back with its Result).
type Encoder struct {
	w    io.Writer
	cpus int
	prev []uint64 // last block emitted per CPU

	buf     []byte // pending data-frame payload
	count   int    // records in buf
	scratch []byte // frame assembly: kind + len + payload + crc

	records  int64
	finished bool
	header   trace.Header
	funcs    []FuncMeta
	closed   bool
	err      error
}

var _ trace.Sink = (*Encoder)(nil)

// NewEncoder starts a wire stream for a cpus-processor miss stream on w,
// writing the magic and header frame immediately. The encoder does its own
// chunking, so w needs no additional buffering for throughput (each frame
// is one Write); wrap w in a bufio.Writer only to coalesce frames further.
func NewEncoder(w io.Writer, cpus int) *Encoder {
	e := &Encoder{w: w, cpus: cpus}
	if cpus <= 0 || cpus > maxCPUs {
		e.err = fmt.Errorf("wire: invalid cpu count %d", cpus)
		return e
	}
	e.prev = make([]uint64, cpus)
	e.buf = make([]byte, 0, frameRecords*8)
	if _, err := w.Write(magic[:]); err != nil {
		e.err = fmt.Errorf("wire: writing magic: %w", err)
		return e
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, version)
	hdr = binary.AppendUvarint(hdr, uint64(cpus))
	e.writeFrame(kindHeader, hdr)
	return e
}

// writeFrame frames the concatenation of the payload parts and writes it
// in one call (splitting the payload lets flush prepend the record count
// without copying the record bytes into a fresh buffer first).
func (e *Encoder) writeFrame(kind byte, parts ...[]byte) {
	if e.err != nil {
		return
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	f := e.scratch[:0]
	f = append(f, kind)
	f = binary.AppendUvarint(f, uint64(total))
	crc := uint32(0)
	for _, p := range parts {
		f = append(f, p...)
		crc = crc32.Update(crc, crcTable, p)
	}
	f = binary.LittleEndian.AppendUint32(f, crc)
	e.scratch = f[:0] // keep the grown capacity
	if _, err := e.w.Write(f); err != nil {
		e.err = fmt.Errorf("wire: writing %c frame: %w", kind, err)
	}
}

// Append encodes one record: the per-record form of AppendBatch, for
// producers that hold records one at a time.
func (e *Encoder) Append(m trace.Miss) {
	if e.err != nil {
		return
	}
	if e.finished {
		e.err = errors.New("wire: Append after Finish")
		return
	}
	e.appendOne(m)
}

// AppendBatch implements trace.Sink: the stream-state checks run
// once per batch instead of once per record; the per-record validation
// (cpu range, class/supplier) stays, because it guards the wire
// format's invariants, not the call protocol. A record that fails
// validation flips the error state and drops the rest of the batch —
// the same prefix the per-record path would have encoded.
func (e *Encoder) AppendBatch(ms []trace.Miss) {
	if e.err != nil {
		return
	}
	if e.finished {
		e.err = errors.New("wire: Append after Finish")
		return
	}
	for _, m := range ms {
		e.appendOne(m)
		if e.err != nil {
			return
		}
	}
}

// appendOne validates and encodes one record; the caller has checked
// the err/finished stream state.
func (e *Encoder) appendOne(m trace.Miss) {
	if int(m.CPU) >= e.cpus {
		e.err = fmt.Errorf("wire: record cpu %d out of range (stream has %d cpus)", m.CPU, e.cpus)
		return
	}
	if m.Class >= trace.NumMissClasses || m.Supplier >= trace.NumSuppliers {
		e.err = fmt.Errorf("wire: invalid class/supplier %d/%d", m.Class, m.Supplier)
		return
	}
	b := e.buf
	b = binary.AppendUvarint(b, uint64(m.CPU)<<4|uint64(m.Class)<<2|uint64(m.Supplier))
	b = binary.AppendUvarint(b, uint64(m.Func))
	block := m.Addr >> 6
	b = binary.AppendVarint(b, int64(block)-int64(e.prev[m.CPU]))
	e.prev[m.CPU] = block
	e.buf = b
	e.count++
	e.records++
	if e.count >= frameRecords {
		e.flush()
	}
}

// flush emits the pending records as one data frame.
func (e *Encoder) flush() {
	if e.count == 0 {
		return
	}
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(e.count))
	e.writeFrame(kindData, cnt[:n], e.buf)
	e.buf = e.buf[:0]
	e.count = 0
}

// Finish implements trace.Sink: it flushes pending records and latches the
// stream header for the trailer Close writes.
func (e *Encoder) Finish(h trace.Header) {
	if e.finished {
		if e.err == nil {
			e.err = errors.New("wire: Finish called twice")
		}
		return
	}
	e.flush()
	e.finished = true
	e.header = h
}

// SetSymbols attaches the symbol table serialized into the trailer. Call
// any time before Close; streams without symbols (network sessions) skip
// it.
func (e *Encoder) SetSymbols(funcs []FuncMeta) { e.funcs = funcs }

// Records returns how many records have been appended.
func (e *Encoder) Records() int64 { return e.records }

// Err returns the first error the encoder encountered, if any.
func (e *Encoder) Err() error { return e.err }

// Close writes the trailer frame and returns the stream's first error.
// Closing a stream whose producer never called Finish returns
// ErrUnfinished (nothing more is written, so decoders reject the stream
// as truncated — which it is).
func (e *Encoder) Close() error {
	if e.closed {
		return e.err
	}
	e.closed = true
	if e.err != nil {
		return e.err
	}
	if !e.finished {
		e.err = ErrUnfinished
		return e.err
	}
	var p []byte
	p = binary.AppendUvarint(p, uint64(e.header.Misses))
	p = binary.AppendUvarint(p, e.header.Instructions)
	p = binary.AppendUvarint(p, uint64(e.header.CPUs))
	p = binary.AppendUvarint(p, uint64(len(e.funcs)))
	for _, f := range e.funcs {
		p = append(p, byte(f.Category))
		p = binary.AppendUvarint(p, uint64(len(f.Name)))
		p = append(p, f.Name...)
	}
	e.writeFrame(kindTrailer, p)
	return e.err
}
