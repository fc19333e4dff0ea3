package tempstream

import (
	"context"
	"sync"
	"testing"

	"repro/internal/trace"
)

type tCat = trace.Category

func crossCats() []tCat { return trace.CrossAppCategories() }
func dbCats() []tCat    { return trace.DBCategories() }

// testTarget is the shared per-machine miss target of the cached
// experiments. The window must span the I/O buffer recycle distance
// (~16k misses for DSS) for recurrence to be observable, as in the
// paper's billion-instruction traces.
const testTarget = 35000

// Experiments are expensive; collect each app once for the whole test
// binary (benchmarks share this cache too).
var (
	expMu    sync.Mutex
	expCache = map[App]*Experiment{}
)

// collectRequest is the configuration of app's cached experiment.
func collectRequest(app App) Request {
	return Request{App: app, Scale: Small, Seed: 1, TargetMisses: testTarget, KeepTraces: true}
}

// collect returns app's experiment as Runner.Run produces it for
// collectRequest(app).
func collect(tb testing.TB, app App) *Experiment {
	tb.Helper()
	expMu.Lock()
	defer expMu.Unlock()
	if e, ok := expCache[app]; ok {
		return e
	}
	e, err := NewRunner().Run(context.Background(), collectRequest(app))
	if err != nil {
		tb.Fatalf("%v: Run: %v", app, err)
	}
	expCache[app] = e
	return e
}

func TestCollectProducesAllContexts(t *testing.T) {
	exp := collect(t, Apache)
	for _, ctx := range Contexts() {
		cr := exp.Contexts[ctx]
		if cr == nil || cr.Trace == nil || cr.Analysis == nil {
			t.Fatalf("context %v missing", ctx)
		}
		if cr.Trace.Len() == 0 {
			t.Errorf("context %v trace empty", ctx)
		}
	}
}

// TestFigure2Shapes checks the paper's headline stream-fraction results:
// 35-90% of misses occur in temporal streams, web is high everywhere,
// OLTP shows the stark multi-chip/single-chip contrast, DSS is lowest.
func TestFigure2Shapes(t *testing.T) {
	type band struct {
		ctx      Context
		lo, hi   float64
		paperRef float64
	}
	cases := map[App][]band{
		Apache: {
			{MultiChipCtx, 0.55, 0.95, 0.777},
			{SingleChipCtx, 0.55, 0.95, 0.800},
			{IntraChipCtx, 0.70, 1.00, 0.845},
		},
		OLTP: {
			{MultiChipCtx, 0.55, 0.95, 0.795},
			{SingleChipCtx, 0.25, 0.70, 0.510},
			{IntraChipCtx, 0.70, 1.00, 0.865},
		},
		Qry1: {
			{MultiChipCtx, 0.30, 0.70, 0.461},
			{SingleChipCtx, 0.25, 0.65, 0.374},
		},
	}
	for app, bands := range cases {
		exp := collect(t, app)
		for _, b := range bands {
			got := exp.Contexts[b.ctx].Analysis.StreamFraction()
			if got < b.lo || got > b.hi {
				t.Errorf("%v %v stream fraction = %.3f, want in [%.2f, %.2f] (paper %.3f)",
					app, b.ctx, got, b.lo, b.hi, b.paperRef)
			}
		}
	}
}

// TestOLTPContextContrast checks Section 4.2's key observation: OLTP
// repetition drops drastically from multi-chip to single-chip.
func TestOLTPContextContrast(t *testing.T) {
	exp := collect(t, OLTP)
	mc := exp.Contexts[MultiChipCtx].Analysis.StreamFraction()
	sc := exp.Contexts[SingleChipCtx].Analysis.StreamFraction()
	if mc < sc+0.15 {
		t.Errorf("OLTP contrast missing: multi=%.3f single=%.3f", mc, sc)
	}
}

// TestStreamLengths checks Figure 4 left: median stream lengths around
// 8-10 blocks (DSS longer, with page-sized copy streams).
func TestStreamLengths(t *testing.T) {
	for _, app := range []App{Apache, OLTP} {
		exp := collect(t, app)
		for _, ctx := range Contexts() {
			med := exp.Contexts[ctx].Analysis.MedianStreamLength()
			if med < 2 || med > 128 {
				t.Errorf("%v %v median stream length = %.0f, want within [2,128]", app, ctx, med)
			}
		}
	}
	// DSS: bulk page copies produce ~64-block (4 KB) streams.
	exp := collect(t, Qry1)
	med := exp.Contexts[SingleChipCtx].Analysis.MedianStreamLength()
	if med < 32 || med > 80 {
		t.Errorf("Qry1 single-chip median = %.0f, want around 64 (page-sized copies)", med)
	}
}

// TestStrideDisjointness checks Figure 3: for web and OLTP, strided misses
// are rare; for DSS they are substantial.
func TestStrideDisjointness(t *testing.T) {
	web := collect(t, Apache)
	rs, _, _, ns := web.Contexts[MultiChipCtx].Analysis.StrideJoint()
	if rs+ns > 0.65 {
		t.Errorf("Apache strided fraction %.2f too high", rs+ns)
	}
	dss := collect(t, Qry1)
	rs, _, _, ns = dss.Contexts[SingleChipCtx].Analysis.StrideJoint()
	if rs+ns < 0.3 {
		t.Errorf("Qry1 strided fraction = %.2f, want >= 0.3 (bulk copies are strided)", rs+ns)
	}
}

// TestReuseDistanceShift checks Figure 4 right: single-chip (replacement
// dominated) reuse distances exceed multi-chip (coherence dominated) ones
// for OLTP.
func TestReuseDistanceShift(t *testing.T) {
	exp := collect(t, OLTP)
	medAt := func(ctx Context) float64 {
		h := exp.Contexts[ctx].Analysis.ReuseDist
		cum := 0.0
		for _, b := range h.Buckets() {
			cum += b.Frac
			if cum >= 0.5 {
				return b.Lo
			}
		}
		return 0
	}
	mc, sc := medAt(MultiChipCtx), medAt(SingleChipCtx)
	if sc < mc {
		t.Errorf("reuse distances: single-chip median bucket %.0f < multi-chip %.0f", sc, mc)
	}
}

// TestCategoryTablesFlat checks the paper's conclusion: activity is spread
// over many categories; aside from DSS bulk copies, no single category
// should utterly dominate.
func TestCategoryTablesFlat(t *testing.T) {
	exp := collect(t, OLTP)
	a := exp.Contexts[MultiChipCtx].Analysis
	rows := a.CategoryTable(exp.Contexts[MultiChipCtx].SymTab, nil)
	_ = rows
	// At least 6 categories must contribute >= 2% each.
	st := exp.Contexts[MultiChipCtx].SymTab
	import_rows := a.CategoryTable(st, allOLTPCats())
	active := 0
	for _, r := range import_rows {
		if r.MissFrac >= 0.02 {
			active++
		}
	}
	if active < 6 {
		t.Errorf("OLTP multi-chip misses concentrated in %d categories, want >= 6", active)
	}
}

// TestPerlInputHighlyRepetitive checks the paper's standout: Perl_sv_gets
// is the single most repetitive function (~99% of its misses in streams).
func TestPerlInputHighlyRepetitive(t *testing.T) {
	exp := collect(t, Apache)
	cr := exp.Contexts[MultiChipCtx]
	var inPerl, inPerlStream int
	for i := range cr.Analysis.Misses {
		m := cr.Analysis.Misses[i]
		if cr.SymTab.Func(m.Func).Name == "Perl_sv_gets" {
			inPerl++
			if cr.Analysis.InStreams(i) {
				inPerlStream++
			}
		}
	}
	if inPerl == 0 {
		t.Fatal("no Perl_sv_gets misses in trace")
	}
	if frac := float64(inPerlStream) / float64(inPerl); frac < 0.8 {
		t.Errorf("Perl_sv_gets in-stream fraction = %.2f, want >= 0.8 (paper: 0.99)", frac)
	}
}

func allOLTPCats() []tCat {
	return append(crossCats(), dbCats()...)
}
