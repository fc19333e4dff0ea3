package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/stream.golden from the live -stream run")

// windowLines keeps the per-window lines and the closing summary of a
// -stream run's output: the lines a live run and a replay of its archive
// share (their first lines name different sources).
func windowLines(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "window ") || strings.HasPrefix(line, "# done:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestStreamGolden pins -stream's window lines, live and replayed, to
// fixed output. The run is -app apache -machine single -seed 7 -target
// 6000 -window 1500: the simulator's 4096-record chunks and the
// decoder's frames both straddle window boundaries, and the last window
// is partial. Regenerate only when a change to the analysis is intended:
//
//	go test ./cmd/tstrace -run TestStreamGolden -update
func TestStreamGolden(t *testing.T) {
	const (
		app     = workload.Apache
		machine = workload.SingleChip
		seed    = 7
		target  = 6000
		window  = 1500
	)
	ctx := context.Background()
	var live bytes.Buffer
	if err := streamRun(ctx, &live, app, machine, workload.Small, seed, target, window, false); err != nil {
		t.Fatalf("streamRun: %v", err)
	}
	path := filepath.Join("testdata", "stream.golden")
	if *update {
		if err := os.WriteFile(path, []byte(windowLines(live.String())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden output: %v", err)
	}
	if got := windowLines(live.String()); got != string(want) {
		t.Errorf("live -stream output differs from %s:\n%s\nwant:\n%s", path, got, want)
	}

	archive := filepath.Join(t.TempDir(), "apache.tsw")
	if err := recordFile(ctx, archive, app, machine, workload.Small, seed, target, false); err != nil {
		t.Fatalf("recordFile: %v", err)
	}
	var replayed bytes.Buffer
	if err := replayFile(&replayed, archive, true, window, 0); err != nil {
		t.Fatalf("replayFile: %v", err)
	}
	if got := windowLines(replayed.String()); got != string(want) {
		t.Errorf("-replay -stream output differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
}
