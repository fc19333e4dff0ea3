package tempstream

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collectSerial is the strictly sequential reference implementation of
// the batch collection: each machine of req is simulated into
// materialized traces (workload.RunStream with *trace.Trace sinks) and
// each trace analyzed in one batch pass (core.Analyze). It shares no
// code with the Runner's sessions, pipelines or pools, so the
// equivalence tests compare the Runner against it field for field. It
// ignores req's analysis, prefetch and trace options (see expectFor).
func collectSerial(req Request) *Experiment {
	run := func(m workload.MachineKind) (res *workload.Result, off, intra *trace.Trace) {
		off, intra = &trace.Trace{}, &trace.Trace{}
		res = workload.RunStream(workload.Config{
			App: req.App, Machine: m, Scale: req.Scale, Seed: req.Seed,
			TargetMisses: req.TargetMisses, WarmMisses: req.WarmMisses,
		}, off, intra)
		return res, off, intra
	}
	analyzed := func(tr *trace.Trace, st *trace.SymbolTable) *ContextResult {
		return &ContextResult{Trace: tr, Header: headerOf(tr), Analysis: core.Analyze(tr, core.Options{}), SymTab: st}
	}
	mc, mcOff, _ := run(workload.MultiChip)
	sc, scOff, scIntra := run(workload.SingleChip)
	exp := &Experiment{App: req.App, Scale: req.Scale, MultiChip: mc, SingleChip: sc}
	exp.Contexts[MultiChipCtx] = analyzed(mcOff, mc.SymTab)
	exp.Contexts[SingleChipCtx] = analyzed(scOff, sc.SymTab)
	exp.Contexts[IntraChipCtx] = analyzed(scIntra, sc.SymTab)
	return exp
}

// equivWarm is the warm-up of the all-apps equivalence sweeps. Warm-up
// is most of a simulation's cost at the default (refill every L2), and
// the Runner must match the serial reference under any configuration,
// so the sweeps run a short one.
const equivWarm = 10000

// equivRequest is app's request in the all-apps equivalence sweeps.
func equivRequest(app App) Request {
	return Request{App: app, Scale: Small, Seed: 1, TargetMisses: testTarget, WarmMisses: equivWarm}
}

// The serial references, built once per test binary: reference(app) at
// equivRequest(app), fullReference(app) at collectRequest(app).
var (
	refMu    sync.Mutex
	refCache = map[Request]*Experiment{}
)

func cachedSerial(req Request) *Experiment {
	refMu.Lock()
	defer refMu.Unlock()
	if e, ok := refCache[req]; ok {
		return e
	}
	e := collectSerial(req)
	refCache[req] = e
	return e
}

func reference(app App) *Experiment     { return cachedSerial(equivRequest(app)) }
func fullReference(app App) *Experiment { return cachedSerial(collectRequest(app)) }

// expectFor derives from a serial reference the Experiment Runner.Run
// must return for req: traces only when req keeps them, and prefetch
// counters from prefetch.Evaluate over the reference traces when req
// attaches a prefetcher.
func expectFor(ref *Experiment, req Request) *Experiment {
	want := &Experiment{App: ref.App, Scale: ref.Scale, MultiChip: ref.MultiChip, SingleChip: ref.SingleChip}
	for _, c := range Contexts() {
		cr := *ref.Contexts[c]
		if req.Prefetch != nil {
			r := prefetch.Evaluate(cr.Trace, *req.Prefetch)
			cr.Prefetch = &r
		}
		if !req.KeepTraces {
			cr.Trace = nil
		}
		want.Contexts[c] = &cr
	}
	return want
}

// compareExperiments asserts the two experiments are identical field for
// field, with targeted messages before falling back to a deep comparison.
func compareExperiments(t *testing.T, got, want *Experiment) {
	t.Helper()
	if got.App != want.App || got.Scale != want.Scale {
		t.Fatalf("identity mismatch: %v/%v vs %v/%v", got.App, got.Scale, want.App, want.Scale)
	}
	for _, ctx := range Contexts() {
		g, w := got.Contexts[ctx], want.Contexts[ctx]
		if g.Header != w.Header {
			t.Errorf("%v %v: header %+v, want %+v", got.App, ctx, g.Header, w.Header)
		}
		if (g.Trace == nil) != (w.Trace == nil) {
			t.Errorf("%v %v: kept trace %v, want %v", got.App, ctx, g.Trace != nil, w.Trace != nil)
		} else if g.Trace != nil && !reflect.DeepEqual(g.Trace.Misses, w.Trace.Misses) {
			t.Errorf("%v %v: miss traces differ", got.App, ctx)
		}
		ga, wa := g.Analysis, w.Analysis
		if !reflect.DeepEqual(ga.Misses, wa.Misses) {
			t.Errorf("%v %v: analysis windows differ (digest %#x vs %#x)",
				got.App, ctx, pipelineDigest(g), pipelineDigest(w))
		}
		if !reflect.DeepEqual(ga.State, wa.State) {
			t.Errorf("%v %v: per-miss states differ", got.App, ctx)
		}
		if !reflect.DeepEqual(ga.Strided, wa.Strided) {
			t.Errorf("%v %v: stride flags differ", got.App, ctx)
		}
		if !reflect.DeepEqual(ga.Instances, wa.Instances) {
			t.Errorf("%v %v: stream instances differ (%d vs %d)",
				got.App, ctx, len(ga.Instances), len(wa.Instances))
		}
		if !reflect.DeepEqual(ga.ReuseDist.Buckets(), wa.ReuseDist.Buckets()) {
			t.Errorf("%v %v: reuse-distance histograms differ", got.App, ctx)
		}
		if ga.MedianStreamLength() != wa.MedianStreamLength() {
			t.Errorf("%v %v: median stream length %v vs %v",
				got.App, ctx, ga.MedianStreamLength(), wa.MedianStreamLength())
		}
		if ga.GrammarRules() != wa.GrammarRules() {
			t.Errorf("%v %v: grammar rules %d vs %d",
				got.App, ctx, ga.GrammarRules(), wa.GrammarRules())
		}
		if (g.Prefetch == nil) != (w.Prefetch == nil) {
			t.Errorf("%v %v: prefetch counters present %v, want %v", got.App, ctx, g.Prefetch != nil, w.Prefetch != nil)
		} else if g.Prefetch != nil && *g.Prefetch != *w.Prefetch {
			t.Errorf("%v %v: prefetch counters %+v, want %+v", got.App, ctx, *g.Prefetch, *w.Prefetch)
		}
	}
	// Everything else (configurations, footprints, symbol tables, the
	// full analysis structs): deep equality over the whole experiment.
	// Stages is wall-clock tracing — explicitly outside the determinism
	// contract — so compare with it blanked.
	g, w := *got, *want
	g.Stages, w.Stages = nil, nil
	if !reflect.DeepEqual(&g, &w) {
		t.Errorf("%v: experiments differ outside the fields checked above", got.App)
	}
}

// TestConcurrentCollectMatchesSerial is the pool determinism guard: Run
// on Runners of several widths must equal the strictly serial reference
// field for field.
func TestConcurrentCollectMatchesSerial(t *testing.T) {
	const (
		seed   = 3
		target = 9000
	)
	req := Request{App: Apache, Scale: Small, Seed: seed, TargetMisses: target, KeepTraces: true}
	want := collectSerial(req)
	for _, workers := range []int{1, 4, 0} {
		got, err := NewRunner(WithWorkers(workers)).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		compareExperiments(t, got, want)
	}
}

// TestCollectAllDeterministicOrder checks that RunAll over every app
// yields each app exactly once and that repeated sweeps are identical,
// whatever order the experiments complete in.
func TestCollectAllDeterministicOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-app determinism sweep in short mode")
	}
	const (
		seed   = 5
		target = 3000
	)
	sweep := func() map[App]*Experiment {
		var reqs []Request
		for _, app := range Apps() {
			reqs = append(reqs, Request{App: app, Scale: Small, Seed: seed, TargetMisses: target, KeepTraces: true})
		}
		out := map[App]*Experiment{}
		for exp, err := range NewRunner().RunAll(context.Background(), reqs...) {
			if err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			if out[exp.App] != nil {
				t.Fatalf("RunAll yielded %v twice", exp.App)
			}
			out[exp.App] = exp
		}
		return out
	}
	a, b := sweep(), sweep()
	for _, app := range Apps() {
		if a[app] == nil || b[app] == nil {
			t.Fatalf("RunAll yielded no experiment for %v", app)
		}
		compareExperiments(t, b[app], a[app])
	}
}
