package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestRoundTripAllApps is the codec's property test over real traffic:
// for every application on both machine organizations, encode the
// classified off-chip trace (and the intra-chip trace on the CMP) and
// assert the decode returns byte-identical Miss sequences, headers, and
// symbol tables.
func TestRoundTripAllApps(t *testing.T) {
	apps := workload.Apps()
	if testing.Short() {
		apps = apps[:1]
	}
	for _, app := range apps {
		for _, machine := range []workload.MachineKind{workload.MultiChip, workload.SingleChip} {
			res := workload.Run(workload.Config{
				App: app, Machine: machine, Scale: workload.Small, Seed: 1, TargetMisses: 6000,
			})
			roundTrip(t, app.String()+"/"+machine.String()+"/off-chip", res.OffChip, res.SymTab)
			if res.IntraChip != nil {
				roundTrip(t, app.String()+"/"+machine.String()+"/intra-chip", res.IntraChip, res.SymTab)
			}
		}
	}
}

func roundTrip(t *testing.T, name string, tr *trace.Trace, st *trace.SymbolTable) {
	t.Helper()
	h := trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf, tr.CPUs)
	for _, m := range tr.Misses {
		enc.Append(m)
	}
	enc.Finish(h)
	enc.SetSymbols(wire.FuncsOf(st))
	if err := enc.Close(); err != nil {
		t.Fatalf("%s: Close: %v", name, err)
	}

	got, trailer, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !reflect.DeepEqual(got.Misses, tr.Misses) {
		t.Errorf("%s: decoded misses differ (%d records)", name, tr.Len())
	}
	if got.Instructions != tr.Instructions || got.CPUs != tr.CPUs {
		t.Errorf("%s: header %d/%d, want %d/%d", name,
			got.Instructions, got.CPUs, tr.Instructions, tr.CPUs)
	}
	if trailer.Header != h {
		t.Errorf("%s: trailer %+v, want %+v", name, trailer.Header, h)
	}
	wantFuncs, gotFuncs := st.Funcs(), trailer.SymbolTable().Funcs()
	if len(wantFuncs) != len(gotFuncs) {
		t.Fatalf("%s: symbol table %d funcs, want %d", name, len(gotFuncs), len(wantFuncs))
	}
	for i := range wantFuncs {
		if gotFuncs[i].Name != wantFuncs[i].Name || gotFuncs[i].Category != wantFuncs[i].Category {
			t.Errorf("%s: func %d = %q/%v, want %q/%v", name, i,
				gotFuncs[i].Name, gotFuncs[i].Category, wantFuncs[i].Name, wantFuncs[i].Category)
		}
	}
}

// analyzerSink drives a core.Analyzer from a decoder, keeping the records
// Observe takes for Finish — the shape `tstrace -replay -stream` uses.
type analyzerSink struct {
	an     *core.Analyzer
	window []trace.Miss
	a      *core.Analysis
}

func (s *analyzerSink) AppendBatch(ms []trace.Miss) {
	s.window = append(s.window, ms[:s.an.Observe(ms)]...)
}
func (s *analyzerSink) Finish(trace.Header) { s.a = s.an.Finish(s.window) }

// TestReplayMatchesInProcessAnalysis pins the record/replay acceptance
// criterion: analyzing a decoded stream incrementally reproduces the
// in-process batch analysis of the original trace field for field.
func TestReplayMatchesInProcessAnalysis(t *testing.T) {
	res := workload.Run(workload.Config{
		App: workload.OLTP, Machine: workload.MultiChip, Scale: workload.Small,
		Seed: 1, TargetMisses: 8000,
	})
	tr := res.OffChip
	want := core.Analyze(tr, core.Options{})

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf, tr.CPUs)
	for _, m := range tr.Misses {
		enc.Append(m)
	}
	enc.Finish(trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs})
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	meta, err := dec.Meta()
	if err != nil {
		t.Fatalf("Meta: %v", err)
	}
	sink := &analyzerSink{an: core.NewAnalyzer()}
	sink.an.Begin(meta.CPUs, core.Options{})
	if _, err := dec.Run(sink); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := sink.a

	if !reflect.DeepEqual(got.Misses, want.Misses) {
		t.Errorf("replayed analysis window differs")
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Errorf("replayed stream states differ")
	}
	if !reflect.DeepEqual(got.Strided, want.Strided) {
		t.Errorf("replayed stride flags differ")
	}
	if !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Errorf("replayed instances differ")
	}
	if !reflect.DeepEqual(got.ReuseDist.Buckets(), want.ReuseDist.Buckets()) {
		t.Errorf("replayed reuse-distance histogram differs")
	}
	if got.MedianStreamLength() != want.MedianStreamLength() {
		t.Errorf("replayed median stream length %v, want %v",
			got.MedianStreamLength(), want.MedianStreamLength())
	}
	if got.GrammarRules() != want.GrammarRules() {
		t.Errorf("replayed grammar rules %d, want %d", got.GrammarRules(), want.GrammarRules())
	}
}
