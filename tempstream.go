// Package tempstream reproduces "Temporal Streams in Commercial Server
// Applications" (Wenisch et al., IISWC 2008): it simulates the paper's six
// commercial workloads on the two machine organizations, collects
// classified off-chip and intra-chip read-miss traces, and runs the
// SEQUITUR-based temporal-stream analyses behind every figure and table in
// the paper's evaluation.
//
// Quick start — the Runner is the package's one entrypoint: a Request in,
// an Experiment out, with the whole pipeline bound to a context:
//
//	r := tempstream.NewRunner()
//	exp, err := r.Run(ctx, tempstream.Request{
//		App: tempstream.OLTP, Scale: tempstream.Small, Seed: 1, TargetMisses: 30000,
//	})
//	if err != nil { ... } // ctx cancelled mid-simulation
//	fmt.Println(exp.Context(tempstream.MultiChipCtx).Analysis.StreamFraction())
//
// Streaming is the one execution engine: the analyses consume the miss
// stream as the simulators produce it, so nothing is materialized and
// peak memory is bounded by the analysis window instead of the trace.
// Request.KeepTraces additionally materializes the per-context traces,
// field for field the traces a batch simulation would have collected.
//
// Sweeps fan out with RunAll, which yields experiments as they complete:
//
//	for exp, err := range r.RunAll(ctx, reqs...) { ... }
//
// The streaming consumer behind Run is exported as Session (a trace.Sink
// over a pooled incremental analyzer), so other producers — the tsserved
// ingest daemon's network sessions (internal/server), wire-format archive
// replays (internal/wire) — feed the identical machinery.
//
// The analyses are hardware-independent (Section 3 of the paper): streams
// are identified by SEQUITUR grammar inference over the miss-address
// sequence, with no assumptions about any particular prefetcher.
//
// # Cancellation
//
// Every Runner method takes a context, and the context reaches the
// execution engine's per-step stop predicates (internal/engine), so
// cancelling a sweep stops each in-flight simulation within one engine
// step. Cancelled runs return the context's error, leak no goroutines,
// and return every pooled analyzer. A context that can never be
// cancelled (context.Background()) adds no per-step work.
//
// # Concurrency
//
// Each Runner owns a bounded worker pool (WithWorkers; default
// GOMAXPROCS): Run executes the two machine simulations concurrently on
// it, and RunAll additionally overlaps requests, yielding each
// experiment as it completes. Results are byte-for-byte deterministic
// for a given seed regardless of the worker count: every simulation
// seeds its own RNGs and every analysis is a pure function of its miss
// stream. Analyses borrow core.Analyzer instances from an internal pool,
// so grammar and scratch storage is reused across contexts, requests,
// and Runners.
package tempstream

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported workload identifiers, so that the public API is
// self-contained.
const (
	Apache = workload.Apache
	Zeus   = workload.Zeus
	OLTP   = workload.OLTP
	Qry1   = workload.Qry1
	Qry2   = workload.Qry2
	Qry17  = workload.Qry17
)

// Scales.
const (
	Small  = workload.Small
	Medium = workload.Medium
	Large  = workload.Large
)

// App identifies one of the six applications (Table 1).
type App = workload.App

// Scale selects cache/footprint sizing (ratios follow the paper).
type Scale = workload.Scale

// Apps returns the applications in the paper's presentation order.
func Apps() []App { return workload.Apps() }

// Context is one of the paper's three analysis contexts (Section 3,
// "System contexts").
type Context int

const (
	// MultiChipCtx: off-chip misses of the 16-node DSM.
	MultiChipCtx Context = iota
	// SingleChipCtx: off-chip misses of the 4-core CMP.
	SingleChipCtx
	// IntraChipCtx: L1 misses of the CMP satisfied on chip.
	IntraChipCtx

	// NumContexts is the number of analysis contexts.
	NumContexts
)

var contextNames = [NumContexts]string{"multi-chip", "single-chip", "intra-chip"}

func (c Context) String() string {
	if c >= 0 && c < NumContexts {
		return contextNames[c]
	}
	return "invalid context"
}

// Contexts returns all three contexts in the paper's presentation order.
func Contexts() []Context { return []Context{MultiChipCtx, SingleChipCtx, IntraChipCtx} }

// ContextResult is one context's stream analysis plus, when the request
// kept traces, its classified trace.
type ContextResult struct {
	// Trace is the materialized miss trace. It is nil unless the
	// collection requested KeepTraces: the records were consumed as they
	// were produced.
	Trace *trace.Trace
	// Header carries the context's window totals (misses emitted,
	// instructions retired, CPUs) whether or not the trace was kept.
	Header   trace.Header
	Analysis *core.Analysis
	// Prefetch holds the temporal-stream prefetcher evaluation when one
	// was requested (Request.Prefetch); nil otherwise.
	Prefetch *prefetch.Result
	SymTab   *trace.SymbolTable
}

// Experiment bundles the three context analyses of one application.
type Experiment struct {
	App   App
	Scale Scale
	// Contexts holds the per-context results, indexed by Context.
	Contexts [NumContexts]*ContextResult
	// MultiChip and SingleChip expose the raw run results (MPKI,
	// footprints, kernel statistics).
	MultiChip  *workload.Result
	SingleChip *workload.Result
	// Stages traces where the run's wall-clock went (simulate vs analyze
	// per machine and context, pipeline stall counters). Always populated
	// by Runner.Run; nil on experiments built by other paths
	// (hand-assembled tests).
	Stages *StageStats
}

// StageStats is one run's stage-level trace: the simulate/analyze
// wall-clock split and the SPSC ring counters that say which side
// stalled. It answers "where did this run's time go"
// without a profiler — tsbench folds the counters into BENCH artifacts,
// and the /metrics totals on long-running processes aggregate the same
// numbers fleet-wide.
type StageStats struct {
	// MultiChipSimSeconds and SingleChipSimSeconds are each machine
	// task's wall-clock, from session setup to the drained pipeline. The
	// two tasks run concurrently, so they overlap rather than sum.
	MultiChipSimSeconds  float64 `json:"multi_chip_sim_seconds"`
	SingleChipSimSeconds float64 `json:"single_chip_sim_seconds"`
	// AnalyzeSeconds is wall-clock inside each context's Session
	// consumers (indexed by Context), spent on the pipeline's consumer
	// goroutine, overlapped with simulation.
	AnalyzeSeconds [NumContexts]float64 `json:"analyze_seconds"`
	// Pipeline holds each context's ring counters (indexed by Context).
	Pipeline [NumContexts]trace.PipeStats `json:"pipeline"`
}

// PipelineTotal sums the per-context pipeline counters.
func (st *StageStats) PipelineTotal() trace.PipeStats {
	var total trace.PipeStats
	for i := range st.Pipeline {
		total.Add(st.Pipeline[i])
	}
	return total
}

// Context returns the result for one analysis context, or nil when c is
// not one of the package's contexts — mirroring Context.String, which
// renders the same out-of-range values as "invalid context".
func (e *Experiment) Context(c Context) *ContextResult {
	if c < 0 || c >= NumContexts {
		return nil
	}
	return e.Contexts[c]
}

// analyzerPool recycles core.Analyzer instances (grammar slab, digram
// index, stride tables, walker scratch) across contexts, requests, and
// Runner instances. analyzersOut counts instances currently checked out;
// the cancellation-hygiene tests assert it returns to zero, so no code
// path — including a cancelled sweep — can strand an analyzer.
var (
	analyzerPool = sync.Pool{New: func() any { return core.NewAnalyzer() }}
	analyzersOut atomic.Int64
)

func getAnalyzer() *core.Analyzer {
	analyzersOut.Add(1)
	return analyzerPool.Get().(*core.Analyzer)
}

func putAnalyzer(an *core.Analyzer) {
	analyzerPool.Put(an)
	analyzersOut.Add(-1)
}

// AnalyzersInFlight reports how many pooled analyzers are currently
// checked out. It exists for hygiene assertions in other packages'
// tests (the ingest server parks live sessions across connections, and
// its tests prove parked state cannot strand an analyzer); production
// code has no business reading it.
func AnalyzersInFlight() int64 { return analyzersOut.Load() }

// headerOf derives a window header from a materialized trace.
func headerOf(tr *trace.Trace) trace.Header {
	return trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs}
}
