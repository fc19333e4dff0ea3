package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Raw frame access for relays. A gateway routing sessions across backends
// does not decode records — it forwards frames verbatim — but it must
// still find frame boundaries (so a failover can replay from an exact
// frame) and verify each frame's CRC (so corruption on the client leg is
// caught at the gateway and never charged to a healthy backend). These
// helpers expose exactly that: one frame at a time, bytes untouched,
// integrity checked. The Decoder reads through the same two readers, so
// a relay and a backend accept the same frames.

// Exported frame kinds, as returned by ReadRawFrame.
const (
	KindHeader  byte = kindHeader
	KindData    byte = kindData
	KindTrailer byte = kindTrailer
)

// MagicBytes returns the stream magic as a fresh slice (for relays that
// replay a stream prefix verbatim).
func MagicBytes() []byte {
	m := magic
	return m[:]
}

// ReadMagic consumes and verifies the 4-byte stream magic. Errors wrap
// ErrTruncated or ErrCorrupt exactly as the Decoder's do; a clean EOF
// before any byte is returned as io.EOF.
func ReadMagic(r io.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: reading magic: %v: %w", err, ErrTruncated)
	}
	if m != magic {
		return fmt.Errorf("wire: bad magic %q: %w", m[:], ErrCorrupt)
	}
	return nil
}

// ReadRawFrame reads one whole frame — kind byte, length uvarint, payload,
// CRC — verifying the CRC, and returns the frame's kind plus its raw bytes
// (the complete frame, suitable for verbatim relay or replay). buf is
// reused when large enough; the returned slice aliases it, so callers
// keeping a frame must copy. A clean EOF at a frame boundary is io.EOF;
// every other error wraps ErrTruncated (bytes stopped) or ErrCorrupt
// (bytes are wrong), exactly as the Decoder's do: both read frames with
// readFrame.
func ReadRawFrame(br *bufio.Reader, buf []byte) (byte, []byte, error) {
	kind, raw, _, err := readFrame(br, buf)
	return kind, raw, err
}

// readFrame is the one frame reader of the package, behind ReadRawFrame
// and the Decoder. It returns the frame's kind, its raw bytes (in buf's
// storage, nil on error) and the offset of the payload within them: the
// payload is raw[start:len(raw)-4]. The length uvarint may take at most
// 5 bytes (maxFramePayload fits in 28 bits, and the encoder writes the
// minimal form); a longer one is corrupt, whatever its value.
func readFrame(br *bufio.Reader, buf []byte) (kind byte, raw []byte, start int, err error) {
	kind, err = br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("wire: reading frame kind: %v: %w", err, ErrTruncated)
	}
	buf = append(buf[:0], kind)
	// Capture the length uvarint byte for byte: the raw frame must be
	// relayable verbatim.
	var size uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, nil, 0, fmt.Errorf("wire: frame %c length: %v: %w", kind, noEOF(err), ErrTruncated)
		}
		buf = append(buf, b)
		size |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
		if shift > 28 {
			return 0, nil, 0, fmt.Errorf("wire: frame %c length overflows: %w", kind, ErrCorrupt)
		}
	}
	if size > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("wire: frame %c payload %d exceeds limit: %w", kind, size, ErrCorrupt)
	}
	start = len(buf)
	buf, err = readBounded(br, buf, int(size)+4)
	if err != nil {
		// Name the part that stopped short: the payload or its CRC.
		part := "payload"
		if len(buf)-start >= int(size) {
			part = "crc"
		}
		return 0, nil, 0, fmt.Errorf("wire: frame %c %s: %v: %w", kind, part, noEOF(err), ErrTruncated)
	}
	payload := buf[start : len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(payload, crcTable) != want {
		return 0, nil, 0, fmt.Errorf("wire: frame %c crc mismatch: %w", kind, ErrCorrupt)
	}
	return kind, buf, start, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a frame, running out of
// bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readStep bounds how far a frame read grows its buffer ahead of the
// bytes that have arrived.
const readStep = 64 << 10

// readBounded appends n bytes read from r to buf and returns the grown
// buffer. It reads in steps of at most readStep bytes and grows buf only
// by the step at hand, so a frame header claiming more bytes than follow
// costs an allocation in proportion to what did arrive (one step at
// least), never the claim.
// Errors are io.ReadFull's: io.EOF when no byte of the n arrived,
// io.ErrUnexpectedEOF when some did.
func readBounded(r io.Reader, buf []byte, n int) ([]byte, error) {
	got := 0
	for got < n {
		step := min(n-got, readStep)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}
