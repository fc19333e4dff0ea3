package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/trace"
)

// Decoder reads a wire stream and drives any trace.Sink with its records:
// the replay side of the codec, shared by the tsserved ingest loop, the
// archive store's reads (Store.Stream, behind `tsquery`) and `tstrace
// -replay`. A Decoder validates as it goes — magic, version, per-frame
// CRC, record bounds, and the trailer's total record count — and returns
// an error rather than panicking on any malformed input (fuzzed in
// FuzzDecoder). It reads the magic with ReadMagic and every frame with
// readFrame, the reader behind ReadRawFrame, so a relay and a decoder
// accept the same frames and classify the same framing faults alike.
// Every error wraps ErrTruncated or ErrCorrupt, so callers can classify
// failures without string matching.
//
// Memory is O(frame): the decoder holds one frame at a time (its payload
// bounded by maxFramePayload), the decoded records of that one frame
// (delivered to the sink as one chunk), and the per-CPU delta chain —
// never the stream.
//
// For the ingest server's resume protocol, a Decoder exposes its exact
// progress — data frames fully consumed, records delivered, and the
// per-CPU delta chain — via Progress, and a fresh Decoder on a
// re-established connection continues from that point via SetProgress:
// the client resends its un-acknowledged frames (whose deltas continue
// the original chain), and decoding proceeds as if the transport had
// never failed. Resumable reports whether the decoder stopped on a clean
// frame boundary; a failure that delivered part of a frame cannot be
// resumed, because re-sending that frame would double-deliver records.
type Decoder struct {
	r    *bufio.Reader
	meta Meta
	prev []uint64 // last block seen per CPU

	frame []byte       // reusable raw-frame buffer (readFrame's)
	batch []trace.Miss // reusable decoded-frame buffer (one sink delivery per frame)
	read  bool         // header frame consumed
	err   error

	frames   int64 // data frames fully delivered (cumulative across resumes)
	records  int64 // records delivered (cumulative across resumes)
	boundary bool  // no partial frame has been delivered
	hook     func(frames, records int64) error
}

// NewDecoder prepares a decoder over r. No bytes are read until Meta or
// Run.
func NewDecoder(r io.Reader) *Decoder {
	if br, ok := r.(*bufio.Reader); ok {
		return &Decoder{r: br, boundary: true}
	}
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10), boundary: true}
}

// SetFrameHook installs fn, called after each data frame has been fully
// delivered to the sink with the cumulative (frames, records) progress.
// The ingest server counts its session's records from this hook and, for
// a resumable session, acknowledges consumed frames; a hook error aborts
// the decode (the decoder remains at a clean boundary).
func (d *Decoder) SetFrameHook(fn func(frames, records int64) error) { d.hook = fn }

// Progress returns the decoder's exact position: data frames fully
// consumed, records delivered, and a copy of the per-CPU delta chain.
// Valid after Meta; the ingest server parks this alongside the analyzer
// state when a resumable session's transport fails.
func (d *Decoder) Progress() (chain []uint64, frames, records int64) {
	chain = append([]uint64(nil), d.prev...)
	return chain, d.frames, d.records
}

// SetProgress restores a parked stream position on a fresh decoder: the
// delta chain, frame count, and record count continue from where the
// previous connection's decoder stopped. Call after Meta (the chain's
// length must match the stream's CPU count); the next frames on the wire
// must be the client's replay from exactly this point.
func (d *Decoder) SetProgress(chain []uint64, frames, records int64) error {
	if !d.read {
		return fmt.Errorf("wire: SetProgress before Meta")
	}
	if len(chain) != d.meta.CPUs {
		return fmt.Errorf("wire: resume chain has %d cpus, stream declares %d (%w)",
			len(chain), d.meta.CPUs, ErrCorrupt)
	}
	copy(d.prev, chain)
	d.frames = frames
	d.records = records
	return nil
}

// Resumable reports whether the decoder's failure (if any) left it on a
// clean frame boundary, i.e. no record of a partially-decoded frame was
// delivered to the sink. Only then may a session resume by re-sending
// frames from Progress.
func (d *Decoder) Resumable() bool { return d.boundary }

// fail records and returns the decoder's terminal error, wrapping kind
// (ErrTruncated or ErrCorrupt) for classification.
func (d *Decoder) fail(kind error, format string, args ...any) error {
	args = append(args, kind)
	d.err = fmt.Errorf("wire: "+format+": %w", args...)
	return d.err
}

// next reads one frame with readFrame and returns its kind and payload
// (valid until the next call). A clean EOF at a frame boundary is
// io.EOF, which callers judge; every other error is terminal.
func (d *Decoder) next() (byte, []byte, error) {
	kind, raw, start, err := readFrame(d.r, d.frame)
	if err != nil {
		if err != io.EOF {
			d.err = err
		}
		return 0, nil, err
	}
	d.frame = raw
	return kind, raw[start : len(raw)-4], nil
}

// Meta reads the stream magic and header frame (on first call) and
// returns what the stream declares about itself.
func (d *Decoder) Meta() (Meta, error) {
	if d.err != nil {
		return Meta{}, d.err
	}
	if d.read {
		return d.meta, nil
	}
	if err := ReadMagic(d.r); err != nil {
		if err == io.EOF {
			return Meta{}, d.fail(ErrTruncated, "reading magic: %v", io.ErrUnexpectedEOF)
		}
		d.err = err
		return Meta{}, err
	}
	kind, p, err := d.next()
	if err != nil {
		if err == io.EOF {
			return Meta{}, d.fail(ErrTruncated, "missing header frame: %v", io.ErrUnexpectedEOF)
		}
		return Meta{}, err
	}
	if kind != kindHeader {
		return Meta{}, d.fail(ErrCorrupt, "first frame is %c, want header", kind)
	}
	v, p, ok := uvarint(p)
	if !ok || v != version {
		return Meta{}, d.fail(ErrCorrupt, "unsupported version %d", v)
	}
	cpus, p, ok := uvarint(p)
	if !ok || cpus == 0 || cpus > maxCPUs {
		return Meta{}, d.fail(ErrCorrupt, "invalid cpu count %d", cpus)
	}
	if len(p) != 0 {
		return Meta{}, d.fail(ErrCorrupt, "trailing bytes in header frame")
	}
	d.meta = Meta{Version: int(v), CPUs: int(cpus)}
	d.prev = make([]uint64, cpus)
	d.read = true
	return d.meta, nil
}

// uvarint consumes one uvarint from p.
func uvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

// varint consumes one zig-zag varint from p.
func varint(p []byte) (int64, []byte, bool) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

// Run decodes the remainder of the stream, calling sink.AppendBatch once
// per data frame in stream order and, when the trailer arrives,
// sink.Finish with the stream's header. It returns the trailer (totals
// plus any symbol table). On error the sink has received a prefix of the
// records and no Finish. Every record decoded reaches the sink, so the
// record count Progress reports is always what the sink received; a
// consumer that wants part of the stream cuts it in its own sink, as the
// archive store's queries do.
func (d *Decoder) Run(sink trace.Sink) (Trailer, error) {
	if _, err := d.Meta(); err != nil {
		return Trailer{}, err
	}
	for {
		kind, p, err := d.next()
		if err != nil {
			if err == io.EOF {
				return Trailer{}, d.fail(ErrTruncated, "stream truncated before trailer (%d records decoded)", d.records)
			}
			return Trailer{}, err
		}
		switch kind {
		case kindData:
			n, err := d.decodeData(p, sink)
			d.records += n
			if err != nil {
				if n > 0 {
					// Records of a malformed frame reached the sink; a
					// resume would re-deliver them.
					d.boundary = false
				}
				return Trailer{}, err
			}
			d.frames++
			if d.hook != nil {
				if err := d.hook(d.frames, d.records); err != nil {
					// The hook failed (e.g. the ack write's transport);
					// the frame itself was fully consumed, so the
					// boundary stays clean.
					d.err = fmt.Errorf("wire: frame hook: %w", err)
					return Trailer{}, d.err
				}
			}
		case kindTrailer:
			tr, err := d.decodeTrailer(p)
			if err != nil {
				return Trailer{}, err
			}
			if int64(tr.Header.Misses) != d.records {
				d.boundary = false // the producer's totals are wrong; re-sending cannot fix them
				return Trailer{}, d.fail(ErrCorrupt, "trailer claims %d records, stream carried %d", tr.Header.Misses, d.records)
			}
			if tr.Header.CPUs != d.meta.CPUs {
				d.boundary = false
				return Trailer{}, d.fail(ErrCorrupt, "trailer cpu count %d != header %d", tr.Header.CPUs, d.meta.CPUs)
			}
			// The trailer ends the stream; Run does NOT demand EOF after
			// it, because on a network connection the transport stays open
			// (the ingest response travels back on it). File consumers call
			// ExpectEOF to reject trailing garbage.
			sink.Finish(tr.Header)
			return tr, nil
		case kindHeader:
			return Trailer{}, d.fail(ErrCorrupt, "duplicate header frame")
		default:
			return Trailer{}, d.fail(ErrCorrupt, "unknown frame kind %#x", kind)
		}
	}
}

// decodeData parses one data frame's records and delivers them to sink
// as a single chunk (the ingest fast path); n is how
// many were delivered. On a malformed frame the records parsed before
// the bad byte are still delivered, exactly as the per-record path did,
// so Run's boundary accounting is unchanged.
//
// Each record's three varints are decoded inline when they take one or
// two bytes (see short); every other form goes through uvarint and
// varint, so the records and errors are the same either way. Keys always
// fit; func ids and address deltas mostly do on simulated traces, but a
// delta of 8192 blocks or more takes the fallback (DESIGN.md, "Inline
// varints", has the measured shares and what a miss costs).
func (d *Decoder) decodeData(p []byte, sink trace.Sink) (n int64, err error) {
	count, p, ok := uvarint(p)
	if !ok {
		return 0, d.fail(ErrCorrupt, "data frame count")
	}
	// Each record is at least 3 bytes; an overlarge count is corruption.
	if count > uint64(len(p)) {
		return 0, d.fail(ErrCorrupt, "data frame claims %d records in %d bytes", count, len(p))
	}
	// The batch buffer is sized once from the claimed count, capped at
	// the encoder's frame size so a hostile count claims at most one
	// frame's records; a longer real frame grows it by append, and it
	// keeps the largest size seen.
	batch := slices.Grow(d.batch[:0], int(min(count, frameRecords)))
	prev := d.prev
	for i := uint64(0); i < count; i++ {
		var key, fn uint64
		var delta int64
		if v, n := short(p); n > 0 {
			key, p = v, p[n:]
		} else if key, p, ok = uvarint(p); !ok {
			err = d.fail(ErrCorrupt, "record %d key", i)
			break
		}
		cpu := key >> 4
		class := trace.MissClass(key >> 2 & 3)
		supplier := trace.Supplier(key & 3)
		if cpu >= uint64(len(prev)) { // len(prev) == d.meta.CPUs; prev[cpu] needs no bounds check below
			err = d.fail(ErrCorrupt, "record cpu %d out of range (%d cpus)", cpu, d.meta.CPUs)
			break
		}
		if class >= trace.NumMissClasses || supplier >= trace.NumSuppliers {
			err = d.fail(ErrCorrupt, "record class/supplier %d/%d invalid", class, supplier)
			break
		}
		if v, n := short(p); n > 0 {
			fn, p = v, p[n:]
		} else if fn, p, ok = uvarint(p); !ok {
			err = d.fail(ErrCorrupt, "record %d func", i)
			break
		}
		if fn >= maxFuncs {
			err = d.fail(ErrCorrupt, "record func id %d out of range", fn)
			break
		}
		if v, n := short(p); n > 0 {
			// Zig-zag decoding, as binary.Varint does it.
			delta, p = int64(v>>1), p[n:]
			if v&1 != 0 {
				delta = ^delta
			}
		} else if delta, p, ok = varint(p); !ok {
			err = d.fail(ErrCorrupt, "record %d addr delta", i)
			break
		}
		block := int64(prev[cpu]) + delta
		if block < 0 || block >= 1<<58 {
			err = d.fail(ErrCorrupt, "record %d block %d out of range", i, block)
			break
		}
		prev[cpu] = uint64(block)
		batch = append(batch, trace.Miss{
			Addr:     uint64(block) << 6,
			Func:     trace.FuncID(fn),
			CPU:      uint8(cpu),
			Class:    class,
			Supplier: supplier,
		})
	}
	if err == nil && len(p) != 0 {
		err = d.fail(ErrCorrupt, "trailing bytes in data frame")
	}
	sink.AppendBatch(batch)
	d.batch = batch[:0] // keep the grown capacity
	return int64(len(batch)), err
}

// short decodes the uvarint at the head of p when it takes one or two
// bytes, non-minimal forms included (as binary.Uvarint accepts them), and
// returns its length; n is 0 for every other form, which the caller
// hands to uvarint or varint. A record's key, func id and zig-zag
// address delta each take at most two bytes for CPUs below 1024, func
// ids below 16384 and deltas from -8192 to 8191 blocks.
func short(p []byte) (v uint64, n int) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	if len(p) > 1 && p[1] < 0x80 {
		return uint64(p[0]&0x7f) | uint64(p[1])<<7, 2
	}
	return 0, 0
}

// decodeTrailer parses the trailer payload.
func (d *Decoder) decodeTrailer(p []byte) (Trailer, error) {
	var tr Trailer
	misses, p, ok := uvarint(p)
	if !ok || misses > 1<<40 {
		return tr, d.fail(ErrCorrupt, "trailer miss count")
	}
	instr, p, ok := uvarint(p)
	if !ok {
		return tr, d.fail(ErrCorrupt, "trailer instruction count")
	}
	cpus, p, ok := uvarint(p)
	if !ok || cpus == 0 || cpus > maxCPUs {
		return tr, d.fail(ErrCorrupt, "trailer cpu count")
	}
	nfuncs, p, ok := uvarint(p)
	if !ok || nfuncs > maxFuncs {
		return tr, d.fail(ErrCorrupt, "trailer func count")
	}
	if nfuncs > 0 {
		tr.Funcs = make([]FuncMeta, 0, min(nfuncs, 1024))
		for i := uint64(0); i < nfuncs; i++ {
			if len(p) == 0 {
				return tr, d.fail(ErrCorrupt, "trailer func %d: truncated", i)
			}
			cat := trace.Category(p[0])
			if cat >= trace.NumCategories {
				return tr, d.fail(ErrCorrupt, "trailer func %d: invalid category %d", i, cat)
			}
			p = p[1:]
			var nameLen uint64
			if nameLen, p, ok = uvarint(p); !ok || nameLen > maxNameLen {
				return tr, d.fail(ErrCorrupt, "trailer func %d: name length", i)
			}
			if uint64(len(p)) < nameLen {
				return tr, d.fail(ErrCorrupt, "trailer func %d: truncated name", i)
			}
			tr.Funcs = append(tr.Funcs, FuncMeta{Name: string(p[:nameLen]), Category: cat})
			p = p[nameLen:]
		}
	}
	if len(p) != 0 {
		return tr, d.fail(ErrCorrupt, "trailing bytes in trailer frame")
	}
	tr.Header = trace.Header{Misses: int(misses), Instructions: instr, CPUs: int(cpus)}
	return tr, nil
}

// ExpectEOF verifies the input is exhausted after the trailer — the
// integrity posture for self-contained archives, where bytes past the
// trailer mean a corrupt or concatenated file. Call after Run.
func (d *Decoder) ExpectEOF() error {
	if d.err != nil {
		return d.err
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		if err != nil {
			return d.fail(ErrTruncated, "after trailer: %v", err)
		}
		return d.fail(ErrCorrupt, "data after trailer")
	}
	return nil
}
