package store_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/trace/sinktest"
)

// FuzzManifest opens a store over arbitrary manifest bytes. Nothing may
// panic, and every entry Open admits to the working set must name a
// file directly inside the store directory. The directory holds one real
// archive, so mutations of its entry can pass Open's stat check, and a
// file just outside it that a path-like ID could reach.
func FuzzManifest(f *testing.F) {
	root := f.TempDir()
	dir := filepath.Join(root, "store")
	writeArchive(f, openStore(f, dir), store.Meta{App: "oltp", Machine: "multi-chip", Scale: "small", Seed: 7},
		sinktest.Misses(100, 2), sinktest.Header(100, 2), nil)
	manifest := filepath.Join(dir, "manifest.json")
	good, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "victim"+store.ArchiveExt), make([]byte, 8), 0o644); err != nil {
		f.Fatal(err)
	}
	old := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	f.Add(good)
	f.Add([]byte(`{"version": 1, "entries": [{"id": "../victim", "cpus": 1, "bytes": 8, "start": "` + old + `", "end": "` + old + `"}]}`))
	f.Add([]byte(`{"version": 1, "entries": []}`))
	f.Add([]byte(`{"version": 2}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := store.Open(dir)
		if err != nil {
			return
		}
		for _, e := range s.Entries() {
			if got := filepath.Dir(filepath.Join(dir, e.File())); got != dir {
				t.Fatalf("entry %q names a file in %s, outside the store %s", e.ID, got, dir)
			}
		}
	})
}
