package store

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Meta is the caller-supplied manifest metadata for a new archive: the
// workload identity when the writer knows it (tstrace does), or just a
// Label when it does not (network ingest).
type Meta struct {
	App     string
	Machine string
	Scale   string
	Seed    int64
	Label   string
}

// Writer records one miss stream into the store: a trace.Sink
// wrapping wire.Encoder over a .tmp file, with the crash-safe
// visibility protocol (fsync → rename → manifest commit) behind Commit.
// Drive it exactly like any sink — AppendBatch then one Finish —
// optionally attach symbols, then call Commit to make the archive
// visible, or Abort to discard it. Until Commit returns nil, the store
// has no trace of the write; after it, the manifest entry and the
// archive file are both durable.
type Writer struct {
	s     *Store
	meta  Meta
	cpus  int
	f     *os.File
	enc   *wire.Encoder
	hash  hash.Hash64
	start time.Time
	done  bool
}

var _ trace.Sink = (*Writer)(nil)

// NewWriter opens a writer for a cpus-processor stream. The archive's
// identity (its ID and file name) derives from a unique temp name, so
// concurrent writers never collide.
func (s *Store) NewWriter(meta Meta, cpus int) (*Writer, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", s.dir, err)
	}
	f, err := os.CreateTemp(s.dir, idPrefix(meta)+"-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("store: creating archive temp: %w", err)
	}
	w := &Writer{s: s, meta: meta, cpus: cpus, f: f, hash: fnv.New64a(), start: time.Now().UTC()}
	w.enc = wire.NewEncoder(io.MultiWriter(f, w.hash), cpus)
	if err := w.enc.Err(); err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

// idPrefix builds the human-readable half of an archive ID from the
// metadata; the unique half comes from CreateTemp.
func idPrefix(meta Meta) string {
	parts := make([]string, 0, 3)
	for _, p := range []string{meta.App, meta.Scale, meta.Label} {
		if p = sanitize(p); p != "" {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "arch")
	}
	return strings.Join(parts, "-")
}

// sanitize reduces a metadata string to a safe file-name fragment.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == '/', r == ' ', r == '.':
			b.WriteRune('_')
		}
	}
	const max = 48
	out := b.String()
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// ID returns the archive's manifest ID (fixed at creation).
func (w *Writer) ID() string {
	return strings.TrimSuffix(filepath.Base(w.f.Name()), ".tmp")
}

// AppendBatch implements trace.Sink.
func (w *Writer) AppendBatch(ms []trace.Miss) { w.enc.AppendBatch(ms) }

// Finish implements trace.Sink.
func (w *Writer) Finish(h trace.Header) { w.enc.Finish(h) }

// SetSymbols attaches the stream's symbol table for the archive trailer;
// call between Finish and Commit.
func (w *Writer) SetSymbols(funcs []wire.FuncMeta) { w.enc.SetSymbols(funcs) }

// Records returns how many records have been appended so far.
func (w *Writer) Records() int64 { return w.enc.Records() }

// Err surfaces the encoder's first error, so long-running producers can
// abort early instead of streaming into a failed file.
func (w *Writer) Err() error { return w.enc.Err() }

// Commit seals the archive and makes it visible: trailer write, fsync,
// rename into place, manifest entry. On any failure the temp (or, past
// the rename, the orphan archive) is cleaned up best-effort and no
// manifest entry is committed. Commit returns the final entry.
func (w *Writer) Commit() (Entry, error) {
	if w.done {
		return Entry{}, errors.New("store: Commit on a finished writer")
	}
	w.done = true
	id := w.ID()
	tmp := w.f.Name()
	fail := func(err error) (Entry, error) {
		w.f.Close()
		os.Remove(tmp)
		return Entry{}, err
	}
	if err := w.enc.Close(); err != nil {
		return fail(fmt.Errorf("store: sealing archive %s: %w", id, err))
	}
	if err := w.f.Sync(); err != nil {
		return fail(fmt.Errorf("store: syncing archive %s: %w", id, err))
	}
	fi, err := w.f.Stat()
	if err != nil {
		return fail(fmt.Errorf("store: archive %s: %w", id, err))
	}
	if err := w.f.Close(); err != nil {
		os.Remove(tmp)
		return Entry{}, fmt.Errorf("store: closing archive %s: %w", id, err)
	}
	final := filepath.Join(w.s.dir, id+ArchiveExt)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return Entry{}, fmt.Errorf("store: publishing archive %s: %w", id, err)
	}
	syncDir(w.s.dir)

	e := Entry{
		ID:      id,
		App:     w.meta.App,
		Machine: w.meta.Machine,
		Scale:   w.meta.Scale,
		Seed:    w.meta.Seed,
		Label:   w.meta.Label,
		CPUs:    w.cpus,
		Records: w.enc.Records(),
		Bytes:   fi.Size(),
		Start:   w.start,
		End:     time.Now().UTC(),
		Digest:  fmt.Sprintf("fnv64a:%016x", w.hash.Sum64()),
	}
	err = w.s.withLock(func() error {
		return w.s.commitManifest(func(entries []Entry) []Entry {
			for _, old := range entries {
				if old.ID == e.ID {
					return entries // impossible via CreateTemp; keep idempotent anyway
				}
			}
			return append(entries, e)
		})
	})
	if err != nil {
		// The archive file stays as an orphan (recoverable evidence)
		// rather than being deleted out from under a half-failed commit.
		return Entry{}, err
	}
	return e, nil
}

// Abort discards the in-flight archive: the temp file is removed and no
// manifest entry is written. Safe to call at any point before Commit
// (and after a failed one).
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}
