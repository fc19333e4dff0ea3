// Package store is the managed archive warehouse behind the temporal
// query layer: a directory of wire-format (TSW1) miss-stream archives
// under a JSON manifest that indexes each archive's workload identity
// (app, machine, scale, seed), shape (CPU count, record count, byte
// size), recording time range, and content digest. It turns the bare
// `-record FILE` archives into a queryable corpus — `tsquery` and the
// `tsserved -archive` tee both speak this package — while keeping the
// analysis path identical to live ingest: queries feed selections
// through tempstream.Session via wire.Decoder, so a stored stream
// answers exactly as it would have in process.
//
// # Layout and crash safety
//
// A store directory holds archives (`<id>.tsw`), the manifest
// (`manifest.json`), and transient files: in-flight writers produce
// `*.tmp`, and manifest commits take `manifest.lock`. Writes are
// ordered so that no observable state ever points at bytes that are not
// fully there:
//
//	encode into <id>.tmp  →  fsync  →  rename to <id>.tsw  →  manifest commit
//
// A crash mid-encode leaves only a .tmp (invisible to the manifest and
// to queries); a crash between the rename and the manifest commit
// leaves an orphan archive (reported by Check, reclaimed by Prune),
// never a manifest entry pointing at a missing or partial file. The
// manifest itself commits by tmp+rename under manifest.lock
// (O_CREATE|O_EXCL), and every commit re-reads the manifest from disk
// inside the lock, so concurrent writers — separate Store instances on
// the same directory included — merge rather than overwrite each
// other's entries.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	manifestName = "manifest.json"
	lockName     = "manifest.lock"
	// ArchiveExt is the archive file suffix; everything else in a store
	// directory is the manifest, the lock, or a writer's .tmp.
	ArchiveExt = ".tsw"

	manifestVersion = 1
)

// lockStale is how old manifest.lock must be before a waiter breaks it:
// commits hold the lock for one read-modify-write of a small JSON file,
// so a lock this old belongs to a crashed process.
const lockStale = 10 * time.Second

// lockWait bounds how long a commit waits for the lock before giving up.
const lockWait = 30 * time.Second

// ErrArchiveCorrupt is the sentinel every archive-integrity failure
// wraps: errors.Is(err, ErrArchiveCorrupt) classifies "this archive's
// bytes cannot be trusted" (missing file, size or digest mismatch, wire
// decode failure) without string matching. Queries skip such archives
// and report a *CorruptError; they do not panic and do not abort the
// rest of the selection.
var ErrArchiveCorrupt = errors.New("store: archive corrupt")

// CorruptError flags one archive the store could not read back: the
// entry (or orphan file) it concerns and why. It matches
// ErrArchiveCorrupt under errors.Is, and unwraps to the underlying
// cause (e.g. wire.ErrTruncated) when decoding produced one.
type CorruptError struct {
	ID     string // manifest entry ID (or file name for orphans)
	Reason string
	Err    error // underlying cause; may be nil
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("store: archive %s: %s: %v", e.ID, e.Reason, e.Err)
	}
	return fmt.Sprintf("store: archive %s: %s", e.ID, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrArchiveCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrArchiveCorrupt }

// Entry is one archive's manifest record: everything a query can
// predicate on without opening the file.
type Entry struct {
	// ID names the archive; the file is <ID>.tsw in the store directory.
	ID string `json:"id"`
	// App, Machine, Scale, Seed identify the workload configuration that
	// produced the stream, as their CLI spellings ("oltp",
	// "multi-chip", "small"). Streams recorded from network ingest may
	// leave the workload fields empty and carry only Label.
	App     string `json:"app,omitempty"`
	Machine string `json:"machine,omitempty"`
	Scale   string `json:"scale,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Label is a free-form source tag: the ingest session's label, or
	// whatever -label the recorder passed.
	Label string `json:"label,omitempty"`
	// CPUs is the stream's processor count (the wire header's).
	CPUs int `json:"cpus"`
	// Records is the total record count (the wire trailer's).
	Records int64 `json:"records"`
	// Bytes is the archive file's size.
	Bytes int64 `json:"bytes"`
	// Start and End bound the recording in wall-clock time: writer
	// creation to commit.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Digest is the FNV-1a 64-bit digest of the archive file's bytes,
	// as "fnv64a:<hex>" — the content identity Check verifies.
	Digest string `json:"digest"`
}

// File returns the entry's archive file name (within the store dir).
func (e Entry) File() string { return e.ID + ArchiveExt }

// manifest is the on-disk index shape.
type manifest struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// Store is an open archive warehouse. All methods are safe for
// concurrent use; cross-process safety comes from the lockfile protocol
// around manifest commits.
type Store struct {
	dir string

	mu      sync.Mutex
	entries []Entry

	compactions atomic.Int64 // archives removed by Prune, for store_compactions_total
}

// Open opens (creating if needed) the store at dir, loads the manifest,
// and verifies manifest↔file consistency: every entry's archive must
// exist with the recorded size. Entries that fail the check are dropped
// from the working set — queries never see them — and reported in the
// returned slice as *CorruptError values (nil when the store is clean).
// Orphan archives and leftover .tmp files are tolerated here and
// reported by Check.
func Open(dir string) (*Store, []error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	m, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	var bad []error
	s.entries, bad = s.sift(m.Entries)
	sortEntries(s.entries)
	return s, bad, nil
}

// sift splits manifest entries into the working set and the damaged
// ones (as *CorruptError values), by entryDamage.
func (s *Store) sift(entries []Entry) (working []Entry, damaged []error) {
	for _, e := range entries {
		if reason := s.entryDamage(e); reason != "" {
			damaged = append(damaged, &CorruptError{ID: e.ID, Reason: reason})
			continue
		}
		working = append(working, e)
	}
	return working, damaged
}

// badID is the damage reason for an entry whose ID is not a plain file
// name.
const badID = "archive ID is not a plain file name"

// validID reports whether id is a single plain file name, so that
// <dir>/<id>.tsw names a file inside the store. The manifest is input
// from outside the program: an ID like "../x" would point Prune's
// deletions and Stream's reads outside the store.
func validID(id string) bool {
	return id != "" && id != "." && id != ".." && !strings.ContainsAny(id, `/\`) && filepath.Base(id) == id
}

// entryDamage returns a non-empty reason when e's ID is not a plain file
// name or its archive file fails the cheap (stat-level) consistency
// check.
func (s *Store) entryDamage(e Entry) string {
	if !validID(e.ID) {
		return badID
	}
	fi, err := os.Stat(filepath.Join(s.dir, e.File()))
	if err != nil {
		return "archive file missing"
	}
	if fi.Size() != e.Bytes {
		return fmt.Sprintf("size %d on disk, manifest says %d", fi.Size(), e.Bytes)
	}
	return ""
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Entries returns the working set, sorted oldest first (Start, then ID
// — the same deterministic order Prune compacts in).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	return out
}

// Entry returns the entry named id.
func (s *Store) Entry(id string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// Bytes returns the working set's total archive bytes (store_bytes).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.entries {
		n += e.Bytes
	}
	return n
}

// Archives returns the working-set size (store_archives).
func (s *Store) Archives() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Compactions returns how many archives Prune has removed over this
// Store's lifetime (store_compactions_total).
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// RegisterMetrics registers the store's gauge/counter families on reg —
// the tsserved /metrics surface when -archive is set. Names are pinned
// by the obs naming-lint tests.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("store_archives",
		"Archives in the store's manifest working set.",
		func() float64 { return float64(s.Archives()) })
	reg.GaugeFunc("store_bytes",
		"Total bytes of archives in the store's working set.",
		func() float64 { return float64(s.Bytes()) })
	reg.CounterFunc("store_compactions_total",
		"Archives removed by retention compaction.",
		func() float64 { return float64(s.Compactions()) })
}

// sortEntries orders oldest first, ID as tiebreak — the store's one
// canonical order, shared by Entries, queries, and Prune's compaction.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if !es[i].Start.Equal(es[j].Start) {
			return es[i].Start.Before(es[j].Start)
		}
		return es[i].ID < es[j].ID
	})
}

// readManifest loads dir's manifest; a missing file is an empty store.
func readManifest(dir string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return m, fmt.Errorf("store: reading manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("store: manifest is not valid JSON: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("store: manifest version %d, want %d", m.Version, manifestVersion)
	}
	return m, nil
}

// withLock runs fn holding the store's cross-process lockfile (plus the
// in-process mutex, so one Store's writers serialize without spinning on
// the filesystem). A lock older than lockStale is broken — its holder
// crashed mid-commit; the manifest itself is still consistent because
// commits replace it atomically.
func (s *Store) withLock(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lock := filepath.Join(s.dir, lockName)
	deadline := time.Now().Add(lockWait)
	for {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			break
		}
		if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("store: taking manifest lock: %w", err)
		}
		if fi, serr := os.Stat(lock); serr == nil && time.Since(fi.ModTime()) > lockStale {
			os.Remove(lock) // crashed holder; safe to break
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store: manifest lock held too long (remove %s if no writer is live)", lock)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer os.Remove(lock)
	return fn()
}

// commitManifest re-reads the manifest from disk, applies mutate to its
// entries, and atomically replaces it; the caller holds the lock. The
// Store's cached working set is replaced with the result's healthy
// entries, by the same check Open applies; damaged entries stay in the
// manifest, where Check reports them.
func (s *Store) commitManifest(mutate func(entries []Entry) []Entry) error {
	m, err := readManifest(s.dir)
	if err != nil {
		return err
	}
	m.Version = manifestVersion
	m.Entries = mutate(m.Entries)
	sortEntries(m.Entries)
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: committing manifest: %w", err)
	}
	syncDir(s.dir)
	s.entries, _ = s.sift(m.Entries)
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames within it are durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Report is Check's inventory of everything in the directory that is
// not a healthy, indexed archive.
type Report struct {
	// Orphans are archive files present on disk but absent from the
	// manifest — the residue of a crash between rename and manifest
	// commit, or of a manifest-first Prune interrupted before deletion.
	Orphans []string
	// Temps are leftover writer .tmp files (crash mid-encode).
	Temps []string
	// Damaged are manifest entries whose file is missing or the wrong
	// size (all *CorruptError).
	Damaged []error
}

// Check inventories the store directory against the manifest on disk.
func (s *Store) Check() (Report, error) {
	var rep Report
	m, err := readManifest(s.dir)
	if err != nil {
		return rep, err
	}
	indexed := make(map[string]bool, len(m.Entries))
	for _, e := range m.Entries {
		indexed[e.File()] = true
	}
	_, rep.Damaged = s.sift(m.Entries)
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp") && name != manifestName+".tmp":
			rep.Temps = append(rep.Temps, name)
		case strings.HasSuffix(name, ArchiveExt) && !indexed[name]:
			rep.Orphans = append(rep.Orphans, name)
		}
	}
	sort.Strings(rep.Orphans)
	sort.Strings(rep.Temps)
	return rep, nil
}

// Retention is Prune's policy.
type Retention struct {
	// MaxBytes, when > 0, caps the working set's total archive bytes;
	// oldest entries (the canonical Start-then-ID order) are removed
	// until the rest fit.
	MaxBytes int64
	// MaxAge, when > 0, removes entries whose End is older than now-MaxAge.
	MaxAge time.Duration
	// Orphans additionally deletes unindexed archives and leftover .tmp
	// files older than OrphanGrace — the grace period keeps a concurrent
	// writer's just-renamed (but not yet committed) archive safe.
	Orphans bool
	// OrphanGrace defaults to one minute when zero.
	OrphanGrace time.Duration
}

// Prune applies the retention policy: the manifest is committed first
// (so an interruption leaves orphan files, never dangling entries),
// then the files are deleted. It returns the entries removed, oldest
// first. Every removed archive counts one compaction.
func (s *Store) Prune(ret Retention, now time.Time) ([]Entry, error) {
	var removed []Entry
	err := s.withLock(func() error {
		removed = removed[:0]
		return s.commitManifest(func(entries []Entry) []Entry {
			sortEntries(entries)
			keep := entries[:0]
			// Age pass first: expired entries go regardless of budget.
			// An entry with an invalid ID stays untouched: it names no
			// file of the store, so Prune builds no path from it.
			var live []Entry
			for _, e := range entries {
				switch {
				case !validID(e.ID):
					keep = append(keep, e)
				case ret.MaxAge > 0 && now.Sub(e.End) > ret.MaxAge:
					removed = append(removed, e)
				default:
					live = append(live, e)
				}
			}
			// Size pass: drop oldest until the rest fit.
			if ret.MaxBytes > 0 {
				var total int64
				for _, e := range live {
					total += e.Bytes
				}
				for len(live) > 0 && total > ret.MaxBytes {
					removed = append(removed, live[0])
					total -= live[0].Bytes
					live = live[1:]
				}
			}
			return append(keep, live...)
		})
	})
	if err != nil {
		return nil, err
	}
	for _, e := range removed {
		if rmErr := os.Remove(filepath.Join(s.dir, e.File())); rmErr == nil || errors.Is(rmErr, os.ErrNotExist) {
			s.compactions.Add(1)
		} else if err == nil {
			err = fmt.Errorf("store: removing %s: %w", e.File(), rmErr)
		}
	}
	if ret.Orphans {
		if oerr := s.pruneOrphans(ret.OrphanGrace, now); err == nil {
			err = oerr
		}
	}
	return removed, err
}

// pruneOrphans deletes unindexed archives and .tmp leftovers older than
// the grace period.
func (s *Store) pruneOrphans(grace time.Duration, now time.Time) error {
	if grace <= 0 {
		grace = time.Minute
	}
	rep, err := s.Check()
	if err != nil {
		return err
	}
	for _, name := range append(rep.Orphans, rep.Temps...) {
		path := filepath.Join(s.dir, name)
		fi, serr := os.Stat(path)
		if serr != nil || now.Sub(fi.ModTime()) < grace {
			continue
		}
		if rmErr := os.Remove(path); rmErr == nil {
			s.compactions.Add(1)
		} else if err == nil {
			err = fmt.Errorf("store: removing orphan %s: %w", name, rmErr)
		}
	}
	return err
}
