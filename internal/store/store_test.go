package store_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	tempstream "repro"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trace/sinktest"
	"repro/internal/wire"
)

// openStore opens dir asserting a clean store.
func openStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	s, bad, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	if len(bad) != 0 {
		t.Fatalf("Open(%s): unexpected damaged entries: %v", dir, bad)
	}
	return s
}

// writeArchive drives ms + header into a committed archive and returns
// its entry.
func writeArchive(t testing.TB, s *store.Store, meta store.Meta, ms []trace.Miss, h trace.Header, funcs []wire.FuncMeta) store.Entry {
	t.Helper()
	w, err := s.NewWriter(meta, h.CPUs)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.AppendBatch(ms)
	w.Finish(h)
	if funcs != nil {
		w.SetSymbols(funcs)
	}
	e, err := w.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return e
}

// recorder is the observing sink for read-back checks.
type recorder struct {
	ms []trace.Miss
	hs []trace.Header
}

func (r *recorder) AppendBatch(ms []trace.Miss) { r.ms = append(r.ms, ms...) }
func (r *recorder) Finish(h trace.Header)       { r.hs = append(r.hs, h) }

// readBack streams entry e whole and returns what arrived.
func readBack(t *testing.T, s *store.Store, e store.Entry, q store.Query) *recorder {
	t.Helper()
	var rec recorder
	if _, err := s.Stream(e, &rec, q); err != nil {
		t.Fatalf("Stream(%s): %v", e.ID, err)
	}
	return &rec
}

// TestWriterSinkConformance runs the Sink conformance harness over
// store.Writer: the drive lands in a committed archive whose read-back
// must reproduce records, order, and the folded header exactly.
func TestWriterSinkConformance(t *testing.T) {
	const cpus = 4
	dir := t.TempDir()
	factory := func() (trace.Sink, func() (sinktest.Observed, bool)) {
		s := openStore(t, dir)
		w, err := s.NewWriter(store.Meta{App: "oltp"}, cpus)
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		observe := func() (sinktest.Observed, bool) {
			e, err := w.Commit()
			if err != nil {
				t.Fatalf("Commit: %v", err)
			}
			rec := readBack(t, s, e, store.Query{})
			return sinktest.Observed{Misses: rec.ms, Finishes: rec.hs}, true
		}
		return w, observe
	}
	sinktest.Run(t, "store.Writer", 10000, cpus, factory)
}

// TestManifestRoundtrip pins the manifest entry a commit produces and
// that a reopened store sees the same working set.
func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const n, cpus = 5000, 4
	ms := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)
	meta := store.Meta{App: "oltp", Machine: "multi-chip", Scale: "small", Seed: 42, Label: "unit"}
	before := time.Now().UTC().Add(-time.Second)
	e := writeArchive(t, s, meta, ms, h, nil)

	if e.App != "oltp" || e.Machine != "multi-chip" || e.Scale != "small" || e.Seed != 42 || e.Label != "unit" {
		t.Fatalf("entry metadata %+v does not carry %+v", e, meta)
	}
	if e.CPUs != cpus || e.Records != int64(n) {
		t.Fatalf("entry shape cpus=%d records=%d, want %d/%d", e.CPUs, e.Records, cpus, n)
	}
	fi, err := os.Stat(filepath.Join(dir, e.File()))
	if err != nil || fi.Size() != e.Bytes {
		t.Fatalf("entry bytes %d, file %v/%v", e.Bytes, fi, err)
	}
	if !strings.HasPrefix(e.Digest, "fnv64a:") {
		t.Fatalf("entry digest %q", e.Digest)
	}
	if e.Start.Before(before) || e.End.Before(e.Start) {
		t.Fatalf("entry time range [%v, %v] not sane", e.Start, e.End)
	}

	s2 := openStore(t, dir)
	got := s2.Entries()
	if len(got) != 1 || got[0] != e {
		t.Fatalf("reopened store entries %+v, want [%+v]", got, e)
	}
	if err := s2.Verify(e); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rec := readBack(t, s2, e, store.Query{})
	if len(rec.ms) != n || len(rec.hs) != 1 || rec.hs[0] != h {
		t.Fatalf("read back %d records, %d finishes", len(rec.ms), len(rec.hs))
	}
	if s2.Archives() != 1 || s2.Bytes() != e.Bytes {
		t.Fatalf("Archives=%d Bytes=%d, want 1/%d", s2.Archives(), s2.Bytes(), e.Bytes)
	}
}

// TestCrashMidWriteInvisible pins the crash-safety contract: an
// abandoned writer (the crash-mid-encode image) leaves no manifest
// entry and no visible archive — only a .tmp that Check reports; an
// archive renamed into place whose manifest commit never happened (the
// crash-between-renames image) is an orphan, reported but never
// queried.
func TestCrashMidWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	w, err := s.NewWriter(store.Meta{App: "oltp"}, 2)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.AppendBatch(sinktest.Misses(1000, 2))
	// "Crash": the writer is simply dropped — no Finish, no Commit.

	s2 := openStore(t, dir)
	if n := s2.Archives(); n != 0 {
		t.Fatalf("crashed write produced %d visible archives", n)
	}
	rep, err := s2.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Temps) != 1 || len(rep.Orphans) != 0 || len(rep.Damaged) != 0 {
		t.Fatalf("Check after crash = %+v, want exactly one temp", rep)
	}

	// Crash between rename and manifest commit: an archive file with no
	// manifest entry.
	orphanSrc := writeArchive(t, s2, store.Meta{App: "zeus"}, sinktest.Misses(500, 2), sinktest.Header(500, 2), nil)
	raw, err := os.ReadFile(filepath.Join(dir, orphanSrc.File()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "orphaned"+store.ArchiveExt), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = s2.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != "orphaned"+store.ArchiveExt {
		t.Fatalf("Check orphans = %v", rep.Orphans)
	}
	if got := s2.Select(store.Query{}); len(got) != 1 || got[0].ID != orphanSrc.ID {
		t.Fatalf("orphan leaked into the working set: %+v", got)
	}
}

// TestCorruptArchiveTypedErrors pins the failure taxonomy: a bit-flip
// (same size) passes Open's stat check but fails queries with a
// *CorruptError matching ErrArchiveCorrupt; a truncation fails Open's
// size check and drops the entry from the working set; healthy archives
// in the same store keep answering.
func TestCorruptArchiveTypedErrors(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const n, cpus = 20000, 4
	good := writeArchive(t, s, store.Meta{App: "oltp", Label: "good"}, sinktest.Misses(n, cpus), sinktest.Header(n, cpus), nil)
	bad := writeArchive(t, s, store.Meta{App: "oltp", Label: "bad"}, sinktest.Misses(n, cpus), sinktest.Header(n, cpus), nil)
	short := writeArchive(t, s, store.Meta{App: "oltp", Label: "short"}, sinktest.Misses(n, cpus), sinktest.Header(n, cpus), nil)

	// Bit-flip mid-file: size unchanged, CRC broken.
	path := filepath.Join(dir, bad.File())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncation: size changes.
	if err := os.Truncate(filepath.Join(dir, short.File()), short.Bytes/2); err != nil {
		t.Fatal(err)
	}

	s2, damaged, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(damaged) != 1 || !errors.Is(damaged[0], store.ErrArchiveCorrupt) {
		t.Fatalf("Open damaged = %v, want one ErrArchiveCorrupt for the truncated archive", damaged)
	}
	if got := s2.Select(store.Query{}); len(got) != 2 {
		t.Fatalf("working set %d entries, want 2 (truncated one dropped)", len(got))
	}

	// The corrupt archive's Session is closed: no analyzer is left
	// checked out of the pool.
	before := tempstream.AnalyzersInFlight()
	results, errs := s2.Analyze(store.Query{}, tempstreamOptions())
	if after := tempstream.AnalyzersInFlight(); after != before {
		t.Fatalf("analyzers in flight %d after Analyze, want %d", after, before)
	}
	if len(results) != 1 || results[0].Entry.ID != good.ID {
		t.Fatalf("Analyze returned %d results, want only the healthy archive", len(results))
	}
	if len(errs) != 1 {
		t.Fatalf("Analyze errs = %v, want one typed error", errs)
	}
	var ce *store.CorruptError
	if !errors.As(errs[0], &ce) || ce.ID != bad.ID {
		t.Fatalf("Analyze err = %v, want *CorruptError for %s", errs[0], bad.ID)
	}
	if !errors.Is(errs[0], store.ErrArchiveCorrupt) || !errors.Is(errs[0], wire.ErrCorrupt) {
		t.Fatalf("Analyze err %v does not classify as archive-corrupt + wire-corrupt", errs[0])
	}
	if err := s2.Verify(bad); !errors.Is(err, store.ErrArchiveCorrupt) {
		t.Fatalf("Verify(corrupt) = %v", err)
	}
	if err := s2.Verify(good); err != nil {
		t.Fatalf("Verify(good) = %v", err)
	}
}

// TestConcurrentWriters commits from many goroutines across two Store
// instances on the same directory (the cross-process image) and checks
// no manifest entry is lost. Run under -race in CI.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir)
	s2 := openStore(t, dir)
	const writers = 8
	const n, cpus = 2000, 2
	ms := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)

	var wg sync.WaitGroup
	ids := make([]string, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := s1
			if i%2 == 1 {
				s = s2
			}
			w, err := s.NewWriter(store.Meta{App: "apache", Seed: int64(i)}, cpus)
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			w.AppendBatch(ms)
			w.Finish(h)
			e, err := w.Commit()
			if err != nil {
				t.Errorf("writer %d commit: %v", i, err)
				return
			}
			ids[i] = e.ID
		}(i)
	}
	wg.Wait()

	fresh := openStore(t, dir)
	got := fresh.Entries()
	if len(got) != writers {
		t.Fatalf("manifest holds %d entries after %d concurrent commits", len(got), writers)
	}
	have := make(map[string]bool, len(got))
	for _, e := range got {
		have[e.ID] = true
	}
	for i, id := range ids {
		if !have[id] {
			t.Fatalf("writer %d's entry %s lost", i, id)
		}
	}
}

// TestPruneRetention pins deterministic oldest-first compaction under
// MaxBytes, MaxAge expiry, orphan reclamation, and the compaction
// counter.
func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const cpus = 2
	var entries []store.Entry
	for i := 0; i < 4; i++ {
		n := 3000 + i*1000
		e := writeArchive(t, s, store.Meta{App: "qry1", Seed: int64(i)},
			sinktest.Misses(n, cpus), sinktest.Header(n, cpus), nil)
		entries = append(entries, e)
		time.Sleep(2 * time.Millisecond) // distinct Start stamps: deterministic age order
	}
	all := s.Entries() // canonical oldest-first order
	var total int64
	for _, e := range all {
		total += e.Bytes
	}

	// Budget that forces out exactly the two oldest.
	budget := total - all[0].Bytes - all[1].Bytes
	removed, err := s.Prune(store.Retention{MaxBytes: budget}, time.Now().UTC())
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if len(removed) != 2 || removed[0].ID != all[0].ID || removed[1].ID != all[1].ID {
		t.Fatalf("Prune removed %+v, want the two oldest (%s, %s)", removed, all[0].ID, all[1].ID)
	}
	if s.Archives() != 2 || s.Bytes() > budget {
		t.Fatalf("after prune: %d archives, %d bytes > budget %d", s.Archives(), s.Bytes(), budget)
	}
	for _, e := range removed {
		if _, err := os.Stat(filepath.Join(dir, e.File())); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("pruned archive %s still on disk", e.File())
		}
	}
	if got := s.Compactions(); got != 2 {
		t.Fatalf("Compactions = %d, want 2", got)
	}

	// MaxAge far in the "past" relative to a future now: everything goes.
	removed, err = s.Prune(store.Retention{MaxAge: time.Minute}, time.Now().UTC().Add(time.Hour))
	if err != nil {
		t.Fatalf("Prune(age): %v", err)
	}
	if len(removed) != 2 || s.Archives() != 0 {
		t.Fatalf("age prune removed %d, left %d", len(removed), s.Archives())
	}

	// Orphan reclamation honors the grace period.
	if err := os.WriteFile(filepath.Join(dir, "stale"+store.ArchiveExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "stale"+store.ArchiveExt), old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "young"+store.ArchiveExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prune(store.Retention{Orphans: true, OrphanGrace: time.Minute}, time.Now().UTC()); err != nil {
		t.Fatalf("Prune(orphans): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "stale"+store.ArchiveExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale orphan survived prune")
	}
	if _, err := os.Stat(filepath.Join(dir, "young"+store.ArchiveExt)); err != nil {
		t.Fatalf("young orphan reclaimed inside grace period: %v", err)
	}
}

// TestQuerySelection pins manifest predicates, sub-window ranges, and
// the decoded-stream filters against reference filtering of the driven
// records.
func TestQuerySelection(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const n, cpus = 12000, 4
	ms := sinktest.Misses(n, cpus)
	h := sinktest.Header(n, cpus)

	// 37 functions (the drive uses Func = i%37) across rotating categories.
	funcs := make([]wire.FuncMeta, 37)
	for i := range funcs {
		funcs[i] = wire.FuncMeta{Name: "fn" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('0'+i/26)), Category: trace.Category(i % int(trace.NumCategories))}
	}
	oltp := writeArchive(t, s, store.Meta{App: "oltp", Machine: "multi-chip", Scale: "small", Seed: 7}, ms, h, funcs)
	writeArchive(t, s, store.Meta{App: "apache", Machine: "single-chip", Scale: "large", Seed: 9}, ms[:100], sinktest.Header(100, cpus), nil)

	seed := int64(7)
	sel := s.Select(store.Query{Apps: []string{"oltp"}, Machines: []string{"multi-chip"}, Seed: &seed})
	if len(sel) != 1 || sel[0].ID != oltp.ID {
		t.Fatalf("Select = %+v, want just the oltp archive", sel)
	}
	if sel = s.Select(store.Query{Scales: []string{"medium"}}); len(sel) != 0 {
		t.Fatalf("Select(medium) = %+v, want none", sel)
	}

	// Sub-window range.
	rec := readBack(t, s, oltp, store.Query{From: 5000, To: 5100})
	if len(rec.ms) != 100 {
		t.Fatalf("range read %d records, want 100", len(rec.ms))
	}
	for i, m := range rec.ms {
		if m != ms[5000+i] {
			t.Fatalf("range record %d mismatch", i)
		}
	}

	// CPU + class filter.
	cpu := 2
	class := trace.Coherence
	rec = readBack(t, s, oltp, store.Query{CPU: &cpu, Class: &class})
	want := 0
	for _, m := range ms {
		if int(m.CPU) == cpu && m.Class == class {
			if rec.ms[want] != m {
				t.Fatalf("filtered record %d mismatch", want)
			}
			want++
		}
	}
	if len(rec.ms) != want {
		t.Fatalf("cpu+class filter: %d records, want %d", len(rec.ms), want)
	}

	// Category filter (two-pass: needs the trailer symbol table).
	cat := trace.Category(3)
	rec = readBack(t, s, oltp, store.Query{Category: &cat})
	want = 0
	for _, m := range ms {
		if funcs[int(m.Func)].Category == cat {
			if rec.ms[want] != m {
				t.Fatalf("category record %d mismatch", want)
			}
			want++
		}
	}
	if want == 0 || len(rec.ms) != want {
		t.Fatalf("category filter: %d records, want %d (nonzero)", len(rec.ms), want)
	}
	if len(rec.hs) != 1 || rec.hs[0] != h {
		t.Fatalf("filtered stream header %+v, want the archive's own %+v", rec.hs, h)
	}
}

// TestStreamRangeMatchesSlice pins Stream's record range against the
// reference semantics: Query{From, To} delivers exactly full[From:To],
// clamped to the stream, in order, with the stream's own header, for
// range bounds inside, on and across the encoder's frame seams. To <= 0
// reads to the end of the stream and a negative From reads as 0.
func TestStreamRangeMatchesSlice(t *testing.T) {
	const cpus, frame = 4, 4096 // frame: the encoder's records per data frame
	// Enough records for three data frames, so ranges cross frame seams.
	n := int64(frame*2 + 1234)
	ms := sinktest.Misses(int(n), cpus)
	h := sinktest.Header(int(n), cpus)
	s := openStore(t, t.TempDir())
	e := writeArchive(t, s, store.Meta{App: "oltp"}, ms, h, nil)

	for _, r := range []struct{ from, to, lo, hi int64 }{
		{0, n, 0, n},         // full stream
		{0, 0, 0, n},         // no range
		{0, 10, 0, 10},       // prefix inside the first frame
		{n - 7, n, n - 7, n}, // suffix inside the last frame
		{100, 100, 100, 100}, // empty range
		{frame - 3, frame + 5, frame - 3, frame + 5}, // across the first seam
		{frame, frame * 2, frame, frame * 2},         // exactly one middle frame
		{17, n - 17, 17, n - 17},                     // interior range
		{n + 5, n + 10, n, n},                        // past the end: empty
		{frame * 2, n + 1_000_000, frame * 2, n},     // clamped tail
		{n - 5, 0, n - 5, n},                         // to the end
		{-1, 10, 0, 10},                              // negative From reads as 0
		{-1, 0, 0, n},                                // negative From, to the end
	} {
		var got trace.Trace
		tr, err := s.Stream(e, &got, store.Query{From: r.from, To: r.to})
		if err != nil {
			t.Fatalf("From %d To %d: %v", r.from, r.to, err)
		}
		want := ms[r.lo:r.hi]
		if len(got.Misses) != len(want) {
			t.Fatalf("From %d To %d: %d records, want %d", r.from, r.to, len(got.Misses), len(want))
		}
		for i := range want {
			if got.Misses[i] != want[i] {
				t.Fatalf("From %d To %d: record %d = %+v, want %+v", r.from, r.to, i, got.Misses[i], want[i])
			}
		}
		// The header and trailer are the stream's own, not the range's.
		if tr.Header != h || got.Instructions != h.Instructions || got.CPUs != h.CPUs {
			t.Fatalf("From %d To %d: trailer %+v, header %d/%d, want %+v", r.from, r.to, tr.Header, got.Instructions, got.CPUs, h)
		}
	}
}

// TestCommitKeepsDamagedEntriesOut pins the working set across commits:
// an entry Open dropped as damaged must not come back when a later
// commit (a Writer's or Prune's) refreshes the working set, while the
// manifest keeps it for Check to report.
func TestCommitKeepsDamagedEntriesOut(t *testing.T) {
	dir := t.TempDir()
	lost := writeArchive(t, openStore(t, dir), store.Meta{App: "oltp"}, sinktest.Misses(100, 2), sinktest.Header(100, 2), nil)
	if err := os.Remove(filepath.Join(dir, lost.File())); err != nil {
		t.Fatal(err)
	}
	s, bad, err := store.Open(dir)
	if err != nil || len(bad) != 1 || s.Archives() != 0 {
		t.Fatalf("Open = %d archives, damaged %v, err %v; want none, one, nil", s.Archives(), bad, err)
	}
	kept := writeArchive(t, s, store.Meta{App: "zeus"}, sinktest.Misses(100, 2), sinktest.Header(100, 2), nil)
	if got := s.Entries(); len(got) != 1 || got[0].ID != kept.ID {
		t.Fatalf("working set after a commit = %+v, want only %s", got, kept.ID)
	}
	if _, err := s.Prune(store.Retention{MaxBytes: 1 << 40}, time.Now()); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if got := s.Entries(); len(got) != 1 || got[0].ID != kept.ID {
		t.Fatalf("working set after Prune = %+v, want only %s", got, kept.ID)
	}
	rep, err := s.Check()
	if err != nil || len(rep.Damaged) != 1 {
		t.Fatalf("Check = %+v, %v; want the lost entry reported", rep, err)
	}
}

// TestManifestRejectsPathIDs pins the manifest's ID rule: an entry whose
// ID is not a single plain file name is damaged. Open reports it, Prune
// never deletes through it, and Stream never reads through it — even
// when the file it points at outside the store exists with the recorded
// size.
func TestManifestRejectsPathIDs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	victim := filepath.Join(root, "victim"+store.ArchiveExt)
	if err := os.WriteFile(victim, make([]byte, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	ids := []string{"../victim", "", ".", "..", "a/b", `a\b`, "/victim"}
	var m struct {
		Version int           `json:"version"`
		Entries []store.Entry `json:"entries"`
	}
	m.Version = 1
	for _, id := range ids {
		m.Entries = append(m.Entries, store.Entry{ID: id, CPUs: 1, Bytes: 8, Start: old, End: old})
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, bad, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(bad) != len(ids) || s.Archives() != 0 {
		t.Fatalf("Open: %d archives, damaged %v; want none and all %d reported", s.Archives(), bad, len(ids))
	}
	for _, b := range bad {
		if !errors.Is(b, store.ErrArchiveCorrupt) {
			t.Errorf("damaged entry error %v does not match ErrArchiveCorrupt", b)
		}
	}
	if removed, err := s.Prune(store.Retention{MaxAge: time.Hour}, time.Now()); err != nil || len(removed) != 0 {
		t.Fatalf("Prune = %+v, %v; want nothing removed", removed, err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("Prune deleted a file outside the store: %v", err)
	}
	if _, err := s.Stream(m.Entries[0], trace.Discard{}, store.Query{}); !errors.Is(err, store.ErrArchiveCorrupt) {
		t.Fatalf("Stream through %q = %v, want ErrArchiveCorrupt", m.Entries[0].ID, err)
	}
	if rep, err := s.Check(); err != nil || len(rep.Damaged) != len(ids) {
		t.Fatalf("Check = %+v, %v; want every entry reported damaged", rep, err)
	}
}
