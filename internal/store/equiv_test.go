package store_test

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	tempstream "repro"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

func tempstreamOptions() tempstream.StreamOptions { return tempstream.StreamOptions{} }

// TestStoreEquivalenceAllApps is the acceptance pin for the query
// layer: for every application, the same simulated off-chip stream is
// (a) analyzed in process as it is produced, (b) recorded into the
// store and analyzed with store.Analyze — the tsquery analyze path —
// and (c) recorded to a bare wire file and replayed through a fresh
// Session — the `tstrace -replay -stream` path. All three must agree on
// every ContextResult-derived field and digest (server.ResultOf, the
// repo's equality currency for analysis results).
func TestStoreEquivalenceAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all six applications")
	}
	dir := t.TempDir()
	s, _, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workload.Apps() {
		t.Run(app.String(), func(t *testing.T) {
			cfg := workload.Config{
				App: app, Machine: workload.MultiChip, Scale: workload.Small,
				Seed: 11, TargetMisses: 6000,
			}
			cpus := cfg.Machine.CPUCount()

			// One simulation feeds three sinks: the in-process session,
			// the store writer, and a bare wire file.
			live := tempstream.NewSession(cpus, cfg.TargetMisses, tempstreamOptions())
			w, err := s.NewWriter(store.Meta{
				App: strings.ToLower(app.String()), Machine: cfg.Machine.String(),
				Scale: cfg.Scale.String(), Seed: cfg.Seed, Label: app.String(),
			}, cpus)
			if err != nil {
				t.Fatal(err)
			}
			filePath := filepath.Join(dir, app.String()+".tsw")
			f, err := os.Create(filePath)
			if err != nil {
				t.Fatal(err)
			}
			bw := bufio.NewWriter(f)
			enc := wire.NewEncoder(bw, cpus)

			res, err := workload.RunStreamContext(t.Context(), cfg, trace.Tee{live, w, enc}, nil)
			if err != nil {
				t.Fatal(err)
			}
			funcs := wire.FuncsOf(res.SymTab)
			w.SetSymbols(funcs)
			enc.SetSymbols(funcs)
			entry, err := w.Commit()
			if err != nil {
				t.Fatalf("store commit: %v", err)
			}
			if err := enc.Close(); err != nil {
				t.Fatalf("file encode: %v", err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			inProcess := server.ResultOf(live.Result(res.SymTab))

			// (b) the store/query path.
			results, errs := s.Analyze(store.Query{ID: entry.ID}, tempstreamOptions())
			if len(errs) != 0 || len(results) != 1 {
				t.Fatalf("Analyze: %d results, errs %v", len(results), errs)
			}
			fromStore := server.ResultOf(results[0].Context)

			// (c) the replay path: decode the bare file into a fresh Session.
			rf, err := os.Open(filePath)
			if err != nil {
				t.Fatal(err)
			}
			replay := tempstream.NewSession(cpus, cfg.TargetMisses, tempstreamOptions())
			dec := wire.NewDecoder(rf)
			tr, err := dec.Run(replay)
			rf.Close()
			if err != nil {
				t.Fatalf("replay decode: %v", err)
			}
			fromReplay := server.ResultOf(replay.Result(tr.SymbolTable()))

			if !reflect.DeepEqual(inProcess, fromStore) {
				t.Errorf("store analysis diverges from in-process:\n  live:  %+v\n  store: %+v", inProcess, fromStore)
			}
			if !reflect.DeepEqual(inProcess, fromReplay) {
				t.Errorf("replay analysis diverges from in-process:\n  live:   %+v\n  replay: %+v", inProcess, fromReplay)
			}
			// The archive's symbol table must round-trip too: the store's
			// attribution table equals the simulation's exported funcs.
			if !reflect.DeepEqual(wire.FuncsOf(results[0].Context.SymTab), funcs) {
				t.Errorf("store symbol table diverges from the simulation's")
			}
		})
	}
}

// TestAnalyzeNarrowedMatchesSession pins store.Analyze's narrowed calls —
// record ranges (inside the archive, past its end, empty), stream filters
// and both together — against an in-process Session fed the same cut of
// the recorded stream, with the archive's own header, as tsquery's
// -from/-to/-cpu/-class/-category options promise. Analyze presizes each
// Session by the range, which must not change a result.
func TestAnalyzeNarrowedMatchesSession(t *testing.T) {
	s, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	res := workload.RunStream(workload.Config{
		App: workload.OLTP, Machine: workload.MultiChip, Scale: workload.Small,
		Seed: 5, TargetMisses: 12000,
	}, tr, nil)
	h := trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs}
	w, err := s.NewWriter(store.Meta{App: "oltp", Machine: "multi-chip", Label: "narrowed"}, tr.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendBatch(tr.Misses)
	w.Finish(h)
	w.SetSymbols(wire.FuncsOf(res.SymTab))
	e, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}

	n := int64(tr.Len())
	cpu := 3
	class := trace.Coherence
	cat := res.SymTab.CategoryOf(tr.Misses[0].Func)
	for _, c := range []struct {
		name string
		q    store.Query
	}{
		{"whole", store.Query{}},
		{"range", store.Query{From: n / 4, To: n / 2}},
		{"range-to-end", store.Query{From: n / 3}},
		{"range-past-end", store.Query{From: n / 2, To: 2 * n}},
		{"range-empty", store.Query{From: n + 10}},
		{"cpu", store.Query{CPU: &cpu}},
		{"class", store.Query{Class: &class}},
		{"category", store.Query{Category: &cat}},
		{"range-cpu", store.Query{From: n / 5, To: n / 2, CPU: &cpu}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := tempstream.AnalyzersInFlight()
			c.q.ID = e.ID
			results, errs := s.Analyze(c.q, tempstreamOptions())
			if len(errs) != 0 || len(results) != 1 {
				t.Fatalf("Analyze: %d results, errs %v", len(results), errs)
			}
			ms := tr.Misses
			lo, hi := min(c.q.From, n), n
			if c.q.To > 0 {
				hi = min(c.q.To, n)
			}
			var cut []trace.Miss
			for _, m := range ms[lo:hi] {
				if (c.q.CPU == nil || int(m.CPU) == *c.q.CPU) &&
					(c.q.Class == nil || m.Class == *c.q.Class) &&
					(c.q.Category == nil || res.SymTab.CategoryOf(m.Func) == *c.q.Category) {
					cut = append(cut, m)
				}
			}
			ref := tempstream.NewSession(tr.CPUs, 0, tempstreamOptions())
			ref.AppendBatch(cut)
			ref.Finish(h)
			want := server.ResultOf(ref.Result(res.SymTab))
			if got := server.ResultOf(results[0].Context); !reflect.DeepEqual(got, want) {
				t.Errorf("store analysis diverges from the in-process cut:\n  store: %+v\n  want:  %+v", got, want)
			}
			if after := tempstream.AnalyzersInFlight(); after != before {
				t.Errorf("analyzers in flight %d after Analyze, want %d", after, before)
			}
		})
	}
}
