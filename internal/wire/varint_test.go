package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// decodeDataReference is decodeData without its inline varint path:
// every field goes through uvarint and varint. The table test holds the
// fast path to it.
func (d *Decoder) decodeDataReference(p []byte, sink trace.Sink) (n int64, err error) {
	count, p, ok := uvarint(p)
	if !ok {
		return 0, d.fail(ErrCorrupt, "data frame count")
	}
	if count > uint64(len(p)) {
		return 0, d.fail(ErrCorrupt, "data frame claims %d records in %d bytes", count, len(p))
	}
	batch := d.batch[:0]
	flush := func() int64 {
		sink.AppendBatch(batch)
		d.batch = batch[:0]
		return int64(len(batch))
	}
	for i := uint64(0); i < count; i++ {
		var key, fn uint64
		var delta int64
		if key, p, ok = uvarint(p); !ok {
			return flush(), d.fail(ErrCorrupt, "record %d key", i)
		}
		cpu := key >> 4
		class := trace.MissClass(key >> 2 & 3)
		supplier := trace.Supplier(key & 3)
		if cpu >= uint64(d.meta.CPUs) {
			return flush(), d.fail(ErrCorrupt, "record cpu %d out of range (%d cpus)", cpu, d.meta.CPUs)
		}
		if class >= trace.NumMissClasses || supplier >= trace.NumSuppliers {
			return flush(), d.fail(ErrCorrupt, "record class/supplier %d/%d invalid", class, supplier)
		}
		if fn, p, ok = uvarint(p); !ok {
			return flush(), d.fail(ErrCorrupt, "record %d func", i)
		}
		if fn >= maxFuncs {
			return flush(), d.fail(ErrCorrupt, "record func id %d out of range", fn)
		}
		if delta, p, ok = varint(p); !ok {
			return flush(), d.fail(ErrCorrupt, "record %d addr delta", i)
		}
		block := int64(d.prev[cpu]) + delta
		if block < 0 || block >= 1<<58 {
			return flush(), d.fail(ErrCorrupt, "record %d block %d out of range", i, block)
		}
		d.prev[cpu] = uint64(block)
		batch = append(batch, trace.Miss{
			Addr:     uint64(block) << 6,
			Func:     trace.FuncID(fn),
			CPU:      uint8(cpu),
			Class:    class,
			Supplier: supplier,
		})
	}
	if len(p) != 0 {
		return flush(), d.fail(ErrCorrupt, "trailing bytes in data frame")
	}
	return flush(), nil
}

// uvarintAt encodes v as a uvarint exactly n bytes long: its minimal form
// padded with continuation bytes, a non-minimal form binary.Uvarint
// accepts up to ten bytes. ok is false when v needs more than n bytes.
func uvarintAt(v uint64, n int) (b []byte, ok bool) {
	b = binary.AppendUvarint(nil, v)
	if len(b) > n {
		return nil, false
	}
	for len(b) < n {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b, true
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// varintCase is one data-frame payload the table test decodes both ways.
type varintCase struct {
	name    string
	payload []byte
}

// varintRecord is one record's three fields, each a uvarint of a given
// encoded length (0: minimal).
type varintRecord struct {
	key, fn uint64
	delta   int64
	lens    [3]int
}

func (r varintRecord) append(p []byte, tb testing.TB) []byte {
	for f, v := range [3]uint64{r.key, r.fn, zigzag(r.delta)} {
		n := r.lens[f]
		if n == 0 {
			n = len(binary.AppendUvarint(nil, v))
		}
		b, ok := uvarintAt(v, n)
		if !ok {
			tb.Fatalf("value %d does not fit %d bytes", v, n)
		}
		p = append(p, b...)
	}
	return p
}

func payloadOf(tb testing.TB, count int, recs ...varintRecord) []byte {
	p := binary.AppendUvarint(nil, uint64(count))
	for _, r := range recs {
		p = r.append(p, tb)
	}
	return p
}

// varintCases encodes each record field at every length it can legally
// take, non-minimal forms included, beside malformed forms: overlong,
// overflowing and cut-off varints, and every range check's failure.
func varintCases(tb testing.TB) []varintCase {
	const cpus = 64
	var cases []varintCase
	add := func(name string, p []byte) { cases = append(cases, varintCase{name, p}) }
	key := func(cpu, class, supplier uint64) uint64 { return cpu<<4 | class<<2 | supplier }

	// Values for each field across the one-, two- and longer-byte forms.
	keys := []uint64{0, key(0, 1, 2), key(7, 3, 2), key(8, 0, 1), key(63, 2, 2)}
	fns := []uint64{0, 1, 127, 128, 16383, 16384, maxFuncs - 1}
	deltas := []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192, -8193, 1 << 40, -(1 << 40)}
	const start = 1 << 41 // a first record's block, so negative deltas stay in range
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		for _, k := range keys {
			if _, ok := uvarintAt(k, n); ok {
				add("key", payloadOf(tb, 2, varintRecord{key: k, lens: [3]int{n, 0, 0}},
					varintRecord{key: k, fn: 5, delta: 3, lens: [3]int{n, n, n}}))
			}
		}
		for _, fn := range fns {
			if _, ok := uvarintAt(fn, n); ok {
				add("func", payloadOf(tb, 1, varintRecord{key: key(1, 0, 0), fn: fn, lens: [3]int{0, n, 0}}))
			}
		}
		for _, dl := range deltas {
			if _, ok := uvarintAt(zigzag(dl), n); ok {
				add("delta", payloadOf(tb, 2, varintRecord{key: key(2, 1, 1), delta: start},
					varintRecord{key: key(2, 1, 1), delta: dl, lens: [3]int{0, 0, n}}))
			}
		}
	}

	// Malformed varints at each field: eleven bytes (overlong), a tenth
	// byte above 1 (overflow), and a cut-off continuation.
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0)
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	for f := 0; f < 3; f++ {
		for name, bad := range map[string][]byte{"overlong": overlong, "overflow": overflow, "cut": {0x80}, "cut2": {0xff, 0xff}} {
			p := binary.AppendUvarint(nil, 2)
			p = varintRecord{key: key(3, 0, 0), fn: 9, delta: 4}.append(p, tb)
			p = append(p, []byte{0x30, 9, 8}[:f]...) // the fields before the bad one
			add(name, append(p, bad...))
		}
	}
	// Range checks, with the offending field in short and long forms.
	for _, n := range []int{0, 2, 5} {
		add("cpu range", payloadOf(tb, 1, varintRecord{key: key(cpus, 0, 0), lens: [3]int{n, 0, 0}}))
		add("supplier", payloadOf(tb, 1, varintRecord{key: key(1, 0, 3), lens: [3]int{n, 0, 0}}))
		add("func range", payloadOf(tb, 1, varintRecord{key: key(1, 0, 0), fn: maxFuncs, lens: [3]int{0, max(n, 3), 0}}))
		add("block below 0", payloadOf(tb, 1, varintRecord{key: key(1, 0, 0), delta: -1, lens: [3]int{0, 0, n}}))
		add("block above bound", payloadOf(tb, 1, varintRecord{key: key(1, 0, 0), delta: 1 << 58, lens: [3]int{0, 0, max(n, 9)}}))
	}
	add("trailing bytes", append(payloadOf(tb, 1, varintRecord{key: key(1, 0, 0)}), 0))
	add("count short", payloadOf(tb, 3, varintRecord{key: key(1, 0, 0)}, varintRecord{key: key(1, 0, 0), delta: 2}))
	add("count overlarge", payloadOf(tb, 100, varintRecord{key: key(1, 0, 0)}))
	add("count cut", []byte{0x80})

	// Random frames: every field at a random legal length.
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		var recs []varintRecord
		for j := rng.Intn(20); j > 0; j-- {
			r := varintRecord{
				key:   key(uint64(rng.Intn(cpus)), uint64(rng.Intn(4)), uint64(rng.Intn(3))),
				fn:    uint64(rng.Intn(maxFuncs)),
				delta: rng.Int63n(1<<20) - 1<<10,
			}
			for f, v := range [3]uint64{r.key, r.fn, zigzag(r.delta)} {
				minimal := len(binary.AppendUvarint(nil, v))
				r.lens[f] = minimal + rng.Intn(binary.MaxVarintLen64-minimal+1)
			}
			recs = append(recs, r)
		}
		add("random", payloadOf(tb, len(recs), recs...))
	}
	return cases
}

type collectSink struct{ ms []trace.Miss }

func (s *collectSink) AppendBatch(ms []trace.Miss) { s.ms = append(s.ms, ms...) }
func (s *collectSink) Finish(trace.Header)         {}

// TestDecodeDataVarintForms holds decodeData's inline varint path to the
// uvarint/varint reference: on every case both must deliver the same
// records, leave the same delta chain and return the same error.
func TestDecodeDataVarintForms(t *testing.T) {
	const cpus = 64
	newDecoder := func() *Decoder {
		return &Decoder{meta: Meta{Version: version, CPUs: cpus}, prev: make([]uint64, cpus), read: true, boundary: true}
	}
	for _, c := range varintCases(t) {
		fast, ref := newDecoder(), newDecoder()
		var fastSink, refSink collectSink
		n, err := fast.decodeData(c.payload, &fastSink)
		wantN, wantErr := ref.decodeDataReference(c.payload, &refSink)
		if n != wantN || !reflect.DeepEqual(fastSink.ms, refSink.ms) {
			t.Fatalf("%s % x: delivered %d records %v, want %d %v", c.name, c.payload, n, fastSink.ms, wantN, refSink.ms)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s % x: error %v, want %v", c.name, c.payload, err, wantErr)
		}
		if !reflect.DeepEqual(fast.prev, ref.prev) {
			t.Fatalf("%s % x: delta chain %v, want %v", c.name, c.payload, fast.prev, ref.prev)
		}
	}
}
