package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	tempstream "repro"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Query selects archives and, optionally, a sub-slice of each one's
// stream. Manifest predicates (Apps..ID) narrow which archives are read
// at all; From/To cut a record range out of each selected stream; the
// decoded-stream filters (CPU, Class, Category) drop records on the way
// into the consumer. The zero Query selects everything, whole.
type Query struct {
	// Manifest-field predicates; empty/nil means "any". String matches
	// use the CLI spellings stored in the manifest.
	Apps     []string
	Machines []string
	Scales   []string
	Seed     *int64
	Label    string
	ID       string // exact archive ID

	// Record range within each selected archive: stream positions
	// [From, To). To <= 0 means "to end of stream"; a negative From
	// reads as 0.
	From, To int64

	// Decoded-stream filters; nil means "any".
	CPU      *int
	Class    *trace.MissClass
	Category *trace.Category
}

// matchEntry reports whether e passes the manifest predicates.
func (q Query) matchEntry(e Entry) bool {
	if q.ID != "" && e.ID != q.ID {
		return false
	}
	if len(q.Apps) > 0 && !containsString(q.Apps, e.App) {
		return false
	}
	if len(q.Machines) > 0 && !containsString(q.Machines, e.Machine) {
		return false
	}
	if len(q.Scales) > 0 && !containsString(q.Scales, e.Scale) {
		return false
	}
	if q.Seed != nil && e.Seed != *q.Seed {
		return false
	}
	if q.Label != "" && e.Label != q.Label {
		return false
	}
	return true
}

func containsString(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// deliverable returns the most records q's range can deliver from e's
// archive: min(To, Records) - From when a range is set, the archive's
// record count otherwise.
func (q Query) deliverable(e Entry) int {
	if q.From <= 0 && q.To <= 0 {
		return int(e.Records)
	}
	to := e.Records
	if q.To > 0 {
		to = min(q.To, to)
	}
	return int(max(to-max(q.From, 0), 0))
}

// keep reports whether m passes the decoded-stream filters, given the
// stream's symbol table (needed only for Category).
func (q Query) keep(m trace.Miss, st *trace.SymbolTable) bool {
	if q.CPU != nil && int(m.CPU) != *q.CPU {
		return false
	}
	if q.Class != nil && m.Class != *q.Class {
		return false
	}
	if q.Category != nil && st.CategoryOf(m.Func) != *q.Category {
		return false
	}
	return true
}

// Select returns the working-set entries matching the manifest
// predicates, in the store's canonical (oldest-first) order.
func (s *Store) Select(q Query) []Entry {
	var out []Entry
	for _, e := range s.Entries() {
		if q.matchEntry(e) {
			out = append(out, e)
		}
	}
	return out
}

// filterSink is the query's one sink between the decoder and the
// consumer. It cuts the record range [From, To) by stream position,
// handing on a sub-slice of each decoded frame with no copy, then drops
// records failing the stream filters; the header passes through
// untouched (rate figures keep referring to the whole recording).
type filterSink struct {
	inner   trace.Sink
	q       Query
	st      *trace.SymbolTable // for the Category filter; nil otherwise
	pos     int64              // stream position of the next chunk's first record
	scratch []trace.Miss
}

func (f *filterSink) AppendBatch(ms []trace.Miss) {
	base := f.pos
	f.pos += int64(len(ms))
	lo, hi := max(f.q.From-base, 0), int64(len(ms))
	if f.q.To > 0 {
		hi = min(hi, f.q.To-base)
	}
	if lo >= hi {
		return
	}
	ms = ms[lo:hi]
	if f.q.CPU == nil && f.q.Class == nil && f.q.Category == nil {
		f.inner.AppendBatch(ms)
		return
	}
	f.scratch = f.scratch[:0]
	for _, m := range ms {
		if f.q.keep(m, f.st) {
			f.scratch = append(f.scratch, m)
		}
	}
	f.inner.AppendBatch(f.scratch)
}

func (f *filterSink) Finish(h trace.Header) { f.inner.Finish(h) }

// Stream decodes entry e's archive into sink through q's record range
// and stream filters, returning the trailer. Errors classify as
// *CorruptError (matching ErrArchiveCorrupt) when the archive's bytes
// are at fault. On error the sink has received a prefix and no Finish.
//
// A Category filter needs the symbol table, which lives in the trailer
// — the end of the stream — so that one case decodes the archive twice:
// a first pass to recover the table, a second to filter. Archives are
// local seekable files, so the extra pass is cheap relative to
// analysis.
func (s *Store) Stream(e Entry, sink trace.Sink, q Query) (wire.Trailer, error) {
	var st *trace.SymbolTable
	if q.Category != nil {
		tr, err := s.decode(e, trace.Discard{})
		if err != nil {
			return wire.Trailer{}, err
		}
		st = tr.SymbolTable()
	}
	return s.decode(e, &filterSink{inner: sink, q: q, st: st})
}

// decode runs e's whole archive through one decoder into sink and
// checks that nothing follows the trailer.
func (s *Store) decode(e Entry, sink trace.Sink) (wire.Trailer, error) {
	dec, f, err := s.openDecoder(e)
	if err != nil {
		return wire.Trailer{}, err
	}
	defer f.Close()
	tr, err := dec.Run(sink)
	if err != nil {
		return wire.Trailer{}, &CorruptError{ID: e.ID, Reason: "decode failed", Err: err}
	}
	if err := dec.ExpectEOF(); err != nil {
		return wire.Trailer{}, &CorruptError{ID: e.ID, Reason: "trailing bytes after trailer", Err: err}
	}
	return tr, nil
}

// openDecoder opens e's archive and validates its header against the
// manifest entry.
func (s *Store) openDecoder(e Entry) (*wire.Decoder, *os.File, error) {
	if !validID(e.ID) {
		return nil, nil, &CorruptError{ID: e.ID, Reason: badID}
	}
	path := filepath.Join(s.dir, e.File())
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, &CorruptError{ID: e.ID, Reason: "archive file missing", Err: err}
	}
	dec := wire.NewDecoder(f)
	meta, err := dec.Meta()
	if err != nil {
		f.Close()
		return nil, nil, &CorruptError{ID: e.ID, Reason: "bad archive header", Err: err}
	}
	if meta.CPUs != e.CPUs {
		f.Close()
		return nil, nil, &CorruptError{ID: e.ID,
			Reason: fmt.Sprintf("stream declares %d cpus, manifest says %d", meta.CPUs, e.CPUs)}
	}
	return dec, f, nil
}

// Result is one archive's analysis under a query: the entry and the
// analysis context (exactly what an in-process run or the ingest server
// would have produced for the same stream), whose SymTab is the
// archive's symbol table for attribution.
type Result struct {
	Entry   Entry
	Context *tempstream.ContextResult
}

// Analyze runs every archive selected by q through a tempstream.Session
// — the same consumer behind Runner.Run and the ingest daemon, so the
// results are byte-identical to analyzing the stream in process.
// Corrupt or unreadable archives are skipped, each contributing one
// typed error (matching ErrArchiveCorrupt) to the second return; the
// analysis of the healthy selection still comes back.
func (s *Store) Analyze(q Query, opts tempstream.StreamOptions) ([]Result, []error) {
	var (
		out  []Result
		errs []error
	)
	for _, e := range s.Select(q) {
		ts := tempstream.NewSession(e.CPUs, q.deliverable(e), opts)
		tr, err := s.Stream(e, ts, q)
		if err != nil {
			ts.Close()
			errs = append(errs, err)
			continue
		}
		out = append(out, Result{Entry: e, Context: ts.Result(tr.SymbolTable())})
	}
	return out, errs
}

// Verify deep-checks one entry: the file's content digest against the
// manifest and a full decode (every frame CRC plus the trailer's record
// count). It returns nil only for a provably intact archive.
func (s *Store) Verify(e Entry) error {
	if !validID(e.ID) {
		return &CorruptError{ID: e.ID, Reason: badID}
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, e.File()))
	if err != nil {
		return &CorruptError{ID: e.ID, Reason: "archive file unreadable", Err: err}
	}
	h := fnv.New64a()
	h.Write(raw)
	if got := fmt.Sprintf("fnv64a:%016x", h.Sum64()); got != e.Digest {
		return &CorruptError{ID: e.ID, Reason: fmt.Sprintf("content digest %s, manifest says %s", got, e.Digest)}
	}
	if _, err := s.Stream(e, trace.Discard{}, Query{}); err != nil {
		return err
	}
	return nil
}
