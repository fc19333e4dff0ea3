package tempstream

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding pipeline and reports the headline shape numbers as
// benchmark metrics, so `go test -bench` both exercises the full system
// and emits the reproduced results:
//
//	fig1 (F1L/F1R)  BenchmarkFigure1OffChip, BenchmarkFigure1IntraChip
//	fig2 (F2)       BenchmarkFigure2StreamFractions
//	fig3 (F3)       BenchmarkFigure3StrideRepetition
//	fig4 (F4L/F4R)  BenchmarkFigure4StreamLength, BenchmarkFigure4ReuseDistance
//	table3 (T3)     BenchmarkTable3WebOrigins
//	table4 (T4)     BenchmarkTable4OLTPOrigins
//	table5 (T5)     BenchmarkTable5DSSOrigins
//
// plus ablations (scale/L2 sweep, fixed-depth stream fetch, prefetcher
// sharing) and raw component throughput benchmarks.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workload"
)

// skipInShort keeps `-short -bench` smoke runs (CI) within time limits by
// skipping the benchmarks that re-run whole simulations per iteration.
// The figure/table benchmarks stay: they share the experiment cache.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping simulation-heavy benchmark in short mode")
	}
}

// benchCollect reuses the test-side experiment cache so that a full
// `go test -bench=. ./...` does each simulation once.
func benchCollect(b *testing.B, app App) *Experiment {
	return collect(b, app)
}

// BenchmarkFigure1OffChip regenerates Figure 1 (left): off-chip MPKI by
// class for both machine organizations. Metrics report the multi-chip
// coherence share and single-chip MPKI for the benchmark's app mix.
func BenchmarkFigure1OffChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []App{Apache, OLTP, Qry1} {
			exp := benchCollect(b, app)
			mc, sc := exp.MultiChip.OffChip, exp.SingleChip.OffChip
			cc := mc.ClassCounts()
			b.ReportMetric(100*float64(cc[trace.Coherence])/float64(mc.Len()),
				app.String()+"_multi_coh_%")
			b.ReportMetric(sc.MPKI(), app.String()+"_single_mpki")
		}
	}
}

// BenchmarkFigure1IntraChip regenerates Figure 1 (right): intra-chip L1
// miss breakdown by cause and supplier.
func BenchmarkFigure1IntraChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp := benchCollect(b, OLTP)
		it := exp.SingleChip.IntraChip
		var peer int
		for _, m := range it.Misses {
			if m.Supplier == trace.SupplierPeerL1 {
				peer++
			}
		}
		cc := it.ClassCounts()
		b.ReportMetric(100*float64(cc[trace.Coherence])/float64(it.Len()), "intra_coh_%")
		b.ReportMetric(100*float64(peer)/float64(it.Len()), "peerL1_%")
	}
}

// BenchmarkFigure2StreamFractions regenerates Figure 2 across all three
// contexts for a representative app of each class.
func BenchmarkFigure2StreamFractions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []App{Apache, OLTP, Qry1} {
			exp := benchCollect(b, app)
			for _, ctx := range Contexts() {
				f := exp.Contexts[ctx].Analysis.StreamFraction()
				b.ReportMetric(100*f, app.String()+"_"+ctx.String()+"_instream_%")
			}
		}
	}
}

// BenchmarkFigure3StrideRepetition regenerates Figure 3's joint breakdown.
func BenchmarkFigure3StrideRepetition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []App{Apache, Qry1} {
			exp := benchCollect(b, app)
			rs, rn, _, ns := exp.Contexts[SingleChipCtx].Analysis.StrideJoint()
			b.ReportMetric(100*(rs+ns), app.String()+"_strided_%")
			b.ReportMetric(100*(rs+rn), app.String()+"_repetitive_%")
		}
	}
}

// BenchmarkFigure4StreamLength regenerates Figure 4 (left).
func BenchmarkFigure4StreamLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []App{Apache, OLTP, Qry1} {
			exp := benchCollect(b, app)
			med := exp.Contexts[MultiChipCtx].Analysis.MedianStreamLength()
			b.ReportMetric(med, app.String()+"_median_len")
		}
	}
}

// BenchmarkFigure4ReuseDistance regenerates Figure 4 (right), reporting
// the weighted median reuse-distance bucket for multi- vs single-chip.
func BenchmarkFigure4ReuseDistance(b *testing.B) {
	medBucket := func(a *core.Analysis) float64 {
		cum := 0.0
		for _, bk := range a.ReuseDist.Buckets() {
			cum += bk.Frac
			if cum >= 0.5 {
				return bk.Lo
			}
		}
		return 0
	}
	for i := 0; i < b.N; i++ {
		exp := benchCollect(b, OLTP)
		b.ReportMetric(medBucket(exp.Contexts[MultiChipCtx].Analysis), "multi_med_dist")
		b.ReportMetric(medBucket(exp.Contexts[SingleChipCtx].Analysis), "single_med_dist")
	}
}

// categoryMetric reports a table row's stream share.
func categoryMetric(b *testing.B, exp *Experiment, ctx Context, cat trace.Category, label string) {
	cr := exp.Contexts[ctx]
	rows := cr.Analysis.CategoryTable(cr.SymTab, []trace.Category{cat})
	for _, r := range rows {
		if r.Category == cat {
			b.ReportMetric(100*r.MissFrac, label+"_miss_%")
			b.ReportMetric(100*r.StreamFrac, label+"_stream_%")
		}
	}
}

// BenchmarkTable3WebOrigins regenerates Table 3's key rows.
func BenchmarkTable3WebOrigins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp := benchCollect(b, Apache)
		categoryMetric(b, exp, MultiChipCtx, trace.CatSTREAMS, "streams")
		categoryMetric(b, exp, MultiChipCtx, trace.CatPerlEngine, "perl")
		categoryMetric(b, exp, SingleChipCtx, trace.CatBulkCopy, "copies_single")
	}
}

// BenchmarkTable4OLTPOrigins regenerates Table 4's key rows.
func BenchmarkTable4OLTPOrigins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp := benchCollect(b, OLTP)
		categoryMetric(b, exp, MultiChipCtx, trace.CatDBAccess, "dbaccess")
		categoryMetric(b, exp, MultiChipCtx, trace.CatScheduler, "sched")
		categoryMetric(b, exp, MultiChipCtx, trace.CatMMUTrap, "mmu")
	}
}

// BenchmarkTable5DSSOrigins regenerates Table 5's key rows.
func BenchmarkTable5DSSOrigins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp := benchCollect(b, Qry1)
		categoryMetric(b, exp, SingleChipCtx, trace.CatBulkCopy, "copies")
		categoryMetric(b, exp, SingleChipCtx, trace.CatDBAccess, "dbaccess")
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationL2Size sweeps the scale (footprint grows 4x per step,
// the L2 only 2x) and reports the multi-chip coherence share: as the
// footprint outgrows the cache, replacement misses dilute the coherence
// traffic - the capacity/communication balance that drives every
// organization contrast in the paper.
func BenchmarkAblationL2Size(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		for _, scale := range []Scale{Small, Medium} {
			res := workload.Run(workload.Config{
				App: workload.OLTP, Machine: workload.MultiChip, Scale: scale,
				Seed: 1, TargetMisses: 10000,
			})
			cc := res.OffChip.ClassCounts()
			b.ReportMetric(100*float64(cc[trace.Coherence])/float64(res.OffChip.Len()),
				"coh_%_"+scale.String())
		}
	}
}

// BenchmarkAblationFixedDepth quantifies Section 4.4's argument against
// fixed-depth stream fetch: with depth-k lookahead, only min(len, k)
// misses of each stream occurrence are covered. Reports covered fraction
// at several depths.
func BenchmarkAblationFixedDepth(b *testing.B) {
	exp := benchCollect(b, Apache)
	a := exp.Contexts[MultiChipCtx].Analysis
	for i := 0; i < b.N; i++ {
		for _, depth := range fixedDepths {
			b.ReportMetric(100*fixedDepthCoverage(a, depth), fmt.Sprintf("covered_%%_d%d", depth))
		}
	}
}

// BenchmarkPrefetcherCoverage evaluates the temporal-stream prefetcher
// mechanism the paper motivates over the OLTP multi-chip trace: coverage
// approaches the stream-fraction ceiling as the lookahead depth grows,
// while accuracy falls and lookups amortize (Section 4.4's trade-off).
func BenchmarkPrefetcherCoverage(b *testing.B) {
	exp := benchCollect(b, OLTP)
	cr := exp.Contexts[MultiChipCtx]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range []int{4, 64} {
			r := prefetch.Evaluate(cr.Trace, prefetch.Config{Depth: d})
			b.ReportMetric(100*r.Coverage(), "cov_%")
			b.ReportMetric(100*r.Accuracy(), "acc_%")
		}
	}
	b.ReportMetric(100*cr.Analysis.StreamFraction(), "ceiling_%")
}

// BenchmarkPrefetcherSharedVsPerCPU quantifies cross-processor stream
// recurrence: a shared history covers more than per-CPU histories because
// streams migrate between processors (Section 2.1).
func BenchmarkPrefetcherSharedVsPerCPU(b *testing.B) {
	exp := benchCollect(b, OLTP)
	tr := exp.Contexts[MultiChipCtx].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared := prefetch.Evaluate(tr, prefetch.Config{Depth: 8})
		split := prefetch.Evaluate(tr, prefetch.Config{Depth: 8, PerCPU: true})
		b.ReportMetric(100*shared.Coverage(), "shared_cov_%")
		b.ReportMetric(100*split.Coverage(), "percpu_cov_%")
	}
}

// BenchmarkSimulationThroughput measures raw trace-generation speed for
// one OLTP multi-chip configuration, reporting misses simulated per
// second of wall clock (warmup misses included: they run through the same
// hot path and dominate every Run).
func BenchmarkSimulationThroughput(b *testing.B) {
	skipInShort(b)
	b.ReportAllocs()
	var misses uint64
	for i := 0; i < b.N; i++ {
		res := workload.Run(workload.Config{
			App: workload.OLTP, Machine: workload.MultiChip, Scale: workload.Small,
			Seed: int64(i + 2), TargetMisses: 20000,
		})
		if res.OffChip.Len() == 0 {
			b.Fatal("no misses")
		}
		misses += uint64(res.OffChip.Len()) + uint64(res.Config.WarmMisses)
	}
	b.ReportMetric(float64(misses)/b.Elapsed().Seconds(), "misses/sec")
}

// BenchmarkSequiturThroughput measures SEQUITUR grammar construction over
// a recorded miss trace (symbols appended per second), building a fresh
// grammar per iteration.
func BenchmarkSequiturThroughput(b *testing.B) {
	exp := benchCollect(b, OLTP)
	misses := exp.Contexts[MultiChipCtx].Trace.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sequitur.New()
		for j := range misses {
			g.Append(misses[j].Addr)
		}
	}
	b.ReportMetric(float64(len(misses)), "symbols")
}

// BenchmarkSequiturReuse is the steady-state variant: one grammar is Reset
// and rebuilt each iteration, so after the first iteration the append path
// runs allocation-free out of the retained slab and index storage.
func BenchmarkSequiturReuse(b *testing.B) {
	exp := benchCollect(b, OLTP)
	misses := exp.Contexts[MultiChipCtx].Trace.Misses
	g := sequitur.New()
	for j := range misses {
		g.Append(misses[j].Addr) // pre-grow storage
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for j := range misses {
			g.Append(misses[j].Addr)
		}
	}
	b.ReportMetric(float64(len(misses)), "symbols")
}

// BenchmarkAnalysisThroughput measures the full stream analysis over a
// recorded trace, reusing one Analyzer as the pipeline does.
func BenchmarkAnalysisThroughput(b *testing.B) {
	exp := benchCollect(b, OLTP)
	tr := exp.Contexts[MultiChipCtx].Trace
	an := core.NewAnalyzer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := an.Analyze(tr, core.Options{})
		if a.StreamFraction() <= 0 {
			b.Fatal("analysis produced nothing")
		}
	}
}

// runCollect drives one OLTP Runner.Run per iteration — both machines,
// three incremental context analyses fed from the simulators through
// their pipelines — hands each experiment to each, and reports the
// misses streamed per second of wall clock.
func runCollect(b *testing.B, keepTraces bool, each func(*Experiment)) {
	r := NewRunner()
	b.ReportAllocs()
	var misses uint64
	for i := 0; i < b.N; i++ {
		exp, err := r.Run(context.Background(), Request{
			App: OLTP, Scale: Small, Seed: int64(i + 2), TargetMisses: 20000, KeepTraces: keepTraces,
		})
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		for _, ctx := range Contexts() {
			h := exp.Context(ctx).Header
			if h.Misses == 0 {
				b.Fatal("empty context window")
			}
			misses += uint64(h.Misses)
		}
		each(exp)
	}
	// b.Elapsed, not wall clock since entry: the denominator then matches
	// the ns/op the harness prints, keeping the two metrics comparable
	// across every benchmark in the trajectory artifact.
	b.ReportMetric(float64(misses)/b.Elapsed().Seconds(), "misses/sec")
}

// BenchmarkStreamingCollect measures the streaming pipeline end to end
// (runCollect without kept traces). Besides misses/sec it reports the
// allocated bytes per run — which stay flat as the target grows (the
// O(window) claim; see TestStreamingBoundedMemory) — and the run-stage
// trace per iteration: pipeline stalls on either side, chunks handed
// over, and the consumers' analyze seconds, so BENCH_<n>.json records
// which side of the pipeline waited. Runs in short mode so the CI
// bench-smoke artifact tracks the streaming trajectory.
func BenchmarkStreamingCollect(b *testing.B) {
	var pipe trace.PipeStats
	runCollect(b, false, func(exp *Experiment) {
		pipe.Add(exp.Stages.PipelineTotal())
	})
	n := float64(b.N)
	b.ReportMetric(float64(pipe.ProducerStalls)/n, "prod-stalls/op")
	b.ReportMetric(float64(pipe.ConsumerStalls)/n, "cons-stalls/op")
	b.ReportMetric(float64(pipe.Chunks)/n, "chunks/op")
	b.ReportMetric(pipe.ConsumerBusySeconds/n, "analyze-sec/op")
}

// BenchmarkBatchCollect is BenchmarkStreamingCollect's A/B twin with the
// traces kept (Request.KeepTraces), otherwise identically configured, so
// the trajectory artifacts record the wall-clock and allocation cost of
// materializing the traces directly.
func BenchmarkBatchCollect(b *testing.B) {
	runCollect(b, true, func(*Experiment) {})
}

// BenchmarkCollectAll measures the wall clock of the full concurrent
// experiment pipeline (RunAll over 6 apps x 2 simulations x 3 analyses,
// traces kept as tsreport keeps them) at a reduced miss target.
func BenchmarkCollectAll(b *testing.B) {
	skipInShort(b)
	r := NewRunner()
	var reqs []Request
	for _, app := range Apps() {
		reqs = append(reqs, Request{App: app, Scale: Small, Seed: 7, TargetMisses: 10000, KeepTraces: true})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, err := range r.RunAll(context.Background(), reqs...) {
			if err != nil {
				b.Fatalf("RunAll: %v", err)
			}
			n++
		}
		if n != len(Apps()) {
			b.Fatal("missing experiments")
		}
	}
}
