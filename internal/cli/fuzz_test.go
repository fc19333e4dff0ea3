package cli

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzApplyConfig feeds arbitrary config files to ApplyConfig over a
// small flag set: nothing may panic, and a file that names a key the
// flag set lacks must be an error.
func FuzzApplyConfig(f *testing.F) {
	for _, seed := range []string{
		"# ingest daemon\nlisten = :9000\nmax-sessions = 16\n; semicolon comments too\npprof = true\n",
		`{"listen": ":9000", "max-sessions": 16, "pprof": true}`,
		"listen=:1\nbogus=2\n",
		`{"listen": {"nested": 1}}`,
		`{"max-sessions": null}`,
		"max-sessions = many\n",
		"just words\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "conf")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, _, _, _ := daemonFlags()
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		err := ApplyConfig(fs, path)
		pairs, perr := parseConfig(data)
		if perr != nil {
			if err == nil {
				t.Fatalf("unparsable config %q applied without error", data)
			}
			return
		}
		for _, kv := range pairs {
			if fs.Lookup(kv.key) == nil && err == nil {
				t.Fatalf("unknown key %q applied without error", kv.key)
			}
		}
	})
}
