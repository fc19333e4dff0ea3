package server_test

import (
	"reflect"
	"testing"
	"time"

	tempstream "repro"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestServerArchivesSessions covers the live→historical loop in process:
// a server configured with an archive store must commit every completed
// session's exact record stream under the manifest, labeled as the
// client labeled it, and re-analyzing the archive through the store must
// reproduce the server's returned result field for field. Sessions that
// die mid-stream must leave no trace — no manifest entry and, once the
// server notices, no temp file.
func TestServerArchivesSessions(t *testing.T) {
	dir := t.TempDir()
	s, damaged, err := store.Open(dir)
	if err != nil || len(damaged) != 0 {
		t.Fatalf("Open: %v (damaged %v)", err, damaged)
	}
	srv := startServer(t, server.Config{Archive: s})
	addr := srv.Addr().String()

	const target = 6000
	req := server.Request{Label: "apache/single-chip"}
	cs := dial(t, addr, workload.SingleChip.CPUCount(), req)
	workload.RunStream(workload.Config{
		App: tempstream.Apache, Machine: workload.SingleChip, Scale: workload.Small,
		Seed: 7, TargetMisses: target,
	}, cs, nil)
	want, err := cs.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	// The commit happens before the server writes its response, so the
	// entry is visible as soon as Result returns.
	entries := s.Entries()
	if len(entries) != 1 {
		t.Fatalf("store holds %d entries after one session, want 1", len(entries))
	}
	e := entries[0]
	if e.Label != req.Label {
		t.Errorf("archived label %q, want %q", e.Label, req.Label)
	}
	if e.CPUs != workload.SingleChip.CPUCount() {
		t.Errorf("archived cpus %d, want %d", e.CPUs, workload.SingleChip.CPUCount())
	}
	if e.Records != int64(want.Header.Misses) {
		t.Errorf("archived %d records, session streamed %d", e.Records, want.Header.Misses)
	}

	// The archived stream re-analyzes to the server's exact result:
	// every scalar and every digest.
	results, errs := s.Analyze(store.Query{ID: e.ID}, tempstream.StreamOptions{})
	if len(errs) != 0 || len(results) != 1 {
		t.Fatalf("Analyze: %d results, errs %v", len(results), errs)
	}
	if got := server.ResultOf(results[0].Context); !reflect.DeepEqual(got, want) {
		t.Errorf("archived analysis differs from server result\n got: %+v\nwant: %+v", got, want)
	}

	// Durability: a fresh Store over the same directory sees the entry.
	s2, damaged2, err := store.Open(dir)
	if err != nil || len(damaged2) != 0 {
		t.Fatalf("reopen: %v (damaged %v)", err, damaged2)
	}
	if got := s2.Entries(); len(got) != 1 || got[0] != e {
		t.Errorf("reopened store entries %+v, want [%+v]", got, e)
	}

	// An abandoned session archives nothing: close the connection
	// mid-stream and the server aborts the tee. (A plain session: a
	// resumable one would park its tee for the grace window instead.)
	dead, enc := dialPlain(t, addr, 4, server.Request{Label: "abandoned"})
	for i := 0; i < 1000; i++ {
		enc.Append(trace.Miss{Addr: uint64(i) << 6, CPU: uint8(i % 4)})
	}
	dead.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, err := s.Check()
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if len(rep.Temps) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned session's temp archive never reclaimed: %+v", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := s.Archives(); n != 1 {
		t.Errorf("store holds %d archives after an abandoned session, want 1", n)
	}
}
