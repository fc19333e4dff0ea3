package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/query.golden from the current commands")

// volatile matches the manifest fields that differ between two stores
// holding the same stream: the archive ID's random half and the
// recording's wall-clock bounds.
var volatile = regexp.MustCompile(`"(id|start|end)":"[^"]*"`)

// TestQueryGolden pins `tsquery show -json` and `tsquery analyze -json`
// (whole archive, -from/-to across a frame seam, -category) to fixed
// output over a one-archive store written with store.Writer: -app apache
// -machine single -seed 3 -target 9000, which spans three data frames.
// Regenerate only when a change to the output is intended:
//
//	go test ./cmd/tsquery -run TestQueryGolden -update
func TestQueryGolden(t *testing.T) {
	res := workload.Run(workload.Config{
		App: workload.Apache, Machine: workload.SingleChip, Scale: workload.Small,
		Seed: 3, TargetMisses: 9000,
	})
	tr := res.OffChip
	dir := t.TempDir()
	s, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWriter(store.Meta{App: "apache", Machine: "single-chip", Scale: "small", Seed: 3}, tr.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendBatch(tr.Misses)
	w.Finish(trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs})
	w.SetSymbols(wire.FuncsOf(res.SymTab))
	e, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	for _, c := range []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}{
		{"show -json", cmdShow, []string{"-id", e.ID, "-json"}},
		{"analyze -json", cmdAnalyze, []string{"-json"}},
		{"analyze -json -from 3000 -to 5000", cmdAnalyze, []string{"-json", "-from", "3000", "-to", "5000"}},
		{"analyze -json -category web-worker", cmdAnalyze, []string{"-json", "-category", "web-worker"}},
	} {
		var out bytes.Buffer
		if err := c.run(append([]string{"-dir", dir}, c.args...), &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.WriteString("# " + c.name + "\n")
		got.WriteString(volatile.ReplaceAllString(out.String(), `"$1":"-"`))
	}

	path := filepath.Join("testdata", "query.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden output: %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("tsquery output differs from %s:\n%s\nwant:\n%s", path, got.String(), want)
	}
	if strings.Count(got.String(), `"window_digest"`) != 3 {
		t.Errorf("want one analyzed archive per analyze call:\n%s", got.String())
	}
}
