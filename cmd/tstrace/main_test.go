package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/stream.golden and testdata/dump.golden from the live runs")

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

// dumpBody drops the source prefix of a dump's first line (the live
// dump names the configuration, a replay its archive), keeping the
// totals from " misses=" on and every line after it.
func dumpBody(out string) string {
	first, rest, _ := strings.Cut(out, "\n")
	if i := strings.Index(first, " misses="); i >= 0 {
		first = first[i:]
	}
	return first + "\n" + rest
}

// TestDumpGolden pins -replay's text dump to the live dump of the same
// run, -app apache -machine single -seed 7 -target 6000: the first 200
// records against fixed output, and the whole stream record for record.
// Regenerate only when a change to the simulator or the dump is
// intended:
//
//	go test ./cmd/tstrace -run TestDumpGolden -update
func TestDumpGolden(t *testing.T) {
	const (
		app     = workload.Apache
		machine = workload.SingleChip
		seed    = 7
		target  = 6000
		n       = 200
	)
	off := &trace.Trace{}
	res := workload.RunStream(workload.Config{App: app, Machine: machine, Scale: workload.Small, Seed: seed, TargetMisses: target}, off, nil)
	live := func(n int) string {
		var b bytes.Buffer
		dump(&b, "# app=Apache machine=single-chip scale=small", res.SymTab, off, n)
		return dumpBody(b.String())
	}
	archive := filepath.Join(t.TempDir(), "apache.tsw")
	if err := recordFile(context.Background(), archive, app, machine, workload.Small, seed, target, false); err != nil {
		t.Fatalf("recordFile: %v", err)
	}
	replayed := func(n int) string {
		var b bytes.Buffer
		if err := replayFile(&b, archive, false, 5000, n); err != nil {
			t.Fatalf("replayFile: %v", err)
		}
		return dumpBody(b.String())
	}

	path := filepath.Join("testdata", "dump.golden")
	if *update {
		if err := os.WriteFile(path, []byte(live(n)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden output: %v", err)
	}
	if got := live(n); got != string(want) {
		t.Errorf("live dump differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
	if got := replayed(n); got != string(want) {
		t.Errorf("-replay dump differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
	if live(0) != replayed(0) {
		t.Errorf("-replay -n 0 dump differs from the live dump")
	}
}
