package tempstream

import (
	"context"
	"iter"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Request selects one experiment: which application to simulate, at what
// scale and seed, and what the analyses should compute. The zero value
// of every tuning field is the package default, so
// Request{App: OLTP} is a complete request.
type Request struct {
	App   App
	Scale Scale
	// Seed makes runs reproducible: the same Request always yields the
	// same Experiment, byte for byte, regardless of worker count.
	Seed int64
	// TargetMisses is the number of off-chip misses to collect per
	// machine after warmup (0 = workload.DefaultTargetMisses).
	TargetMisses int
	// WarmMisses is the number of off-chip misses to discard as warmup
	// (0 = a scale-derived default that refills every L2 in the system).
	WarmMisses int
	// Analysis tunes the per-context stream analyses (window size, reuse
	// truncation).
	Analysis core.Options
	// Prefetch, when non-nil, additionally evaluates a temporal-stream
	// prefetcher over each context's miss stream as it is produced.
	Prefetch *prefetch.Config
	// KeepTraces materializes each context's trace in
	// ContextResult.Trace, costing O(trace) memory. Off by default —
	// results then carry only headers and analyses, and peak memory is
	// bounded by the analysis window.
	KeepTraces bool
}

// config returns the workload configuration for one machine.
func (req Request) config(m workload.MachineKind) workload.Config {
	return workload.Config{
		App: req.App, Machine: m, Scale: req.Scale,
		Seed: req.Seed, TargetMisses: req.TargetMisses, WarmMisses: req.WarmMisses,
	}
}

// stream returns the per-context consumer options.
func (req Request) stream() StreamOptions {
	return StreamOptions{Analysis: req.Analysis, Prefetch: req.Prefetch, KeepTraces: req.KeepTraces}
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers bounds the number of simulations the Runner executes
// concurrently (the Runner's own pool — independent Runners never
// contend). n < 1 selects the default of GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(r *Runner) { r.pool = par.NewPool(n) }
}

// Runner executes experiment Requests over its own bounded worker pool.
// Create one with NewRunner (the zero Runner has no pool) and share it:
// a Runner is safe for concurrent use, and all of its Run/RunAll calls
// schedule on the same pool, so a service can cap its total simulation
// concurrency in one place.
type Runner struct {
	pool *par.Pool
}

// NewRunner returns a Runner with its own worker pool (default
// GOMAXPROCS wide; see WithWorkers).
func NewRunner(opts ...Option) *Runner {
	r := &Runner{pool: par.NewPool(0)}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Workers returns the Runner's concurrency bound.
func (r *Runner) Workers() int { return r.pool.Workers() }

// Run executes one Request: both machine simulations run concurrently on
// the Runner's pool, each streaming its classified misses into
// per-context Session sinks (incremental analyzer + optional prefetcher
// + optional kept trace), so peak memory is bounded by the analysis
// window unless traces are kept. Each context's Session sits behind a
// trace.Pipelined channel, so the simulator's emission overlaps the
// analyses on another core; the pipeline reorders nothing, so results
// are those of feeding each Session inline.
//
// Cancelling ctx stops each in-flight simulation within one engine step;
// Run then returns ctx's error with every pooled analyzer returned and
// no goroutines left behind. A nil error guarantees a complete
// Experiment: all three contexts analyzed, headers folded.
func (r *Runner) Run(ctx context.Context, req Request) (*Experiment, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	exp := &Experiment{App: req.App, Scale: req.Scale, Stages: &StageStats{}}
	machines := []workload.MachineKind{workload.MultiChip, workload.SingleChip}
	errs := make([]error, len(machines))
	g := par.Group{Pool: r.pool}
	for i, m := range machines {
		g.GoCtx(ctx, func() { errs[i] = req.simulate(ctx, m, exp) })
	}
	g.Wait()
	// A cancelled context may also have skipped a task before it ever
	// acquired a slot (GoCtx), so check it before the per-task errors.
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return exp, nil
}

// simulate is one machine task of Run: it simulates machine m and
// analyzes each of its contexts in a Session behind a pipeline, filling
// those contexts, the machine's run result and its stage counters in
// exp.
func (req Request) simulate(ctx context.Context, m workload.MachineKind, exp *Experiment) error {
	start := time.Now()
	// Every context's Session is presized by the off-chip target: the
	// intra-chip stream may run up to 40x it (the workload runner's
	// measurement cap), but most stop far short of it, so its kept trace
	// grows by chunks on demand.
	expect := req.TargetMisses
	if expect == 0 {
		expect = workload.DefaultTargetMisses
	}
	// m's contexts in the order of RunStreamContext's sinks: off-chip,
	// then intra-chip.
	ctxs := []Context{MultiChipCtx}
	if m == workload.SingleChip {
		ctxs = []Context{SingleChipCtx, IntraChipCtx}
	}
	sessions := make([]*Session, len(ctxs))
	pipes := make([]*trace.Pipelined, len(ctxs))
	var sinks [2]trace.Sink
	for i := range ctxs {
		sessions[i] = NewSession(m.CPUCount(), expect, req.stream())
		pipes[i] = trace.NewPipelined(sessions[i])
		sinks[i] = pipes[i]
	}
	res, err := workload.RunStreamContext(ctx, req.config(m), sinks[0], sinks[1])
	// Drain the pipelines before touching the sessions: after this each
	// session has seen every record (and, on success, the Finish).
	for i, c := range ctxs {
		pipes[i].Close()
		exp.Stages.Pipeline[c] = pipes[i].Stats()
	}
	sec := time.Since(start).Seconds()
	if err != nil {
		for _, s := range sessions {
			s.Close()
		}
		return err
	}
	for i, c := range ctxs {
		exp.Contexts[c] = sessions[i].Result(res.SymTab)
	}
	if m == workload.MultiChip {
		exp.MultiChip, exp.Stages.MultiChipSimSeconds = res, sec
	} else {
		exp.SingleChip, exp.Stages.SingleChipSimSeconds = res, sec
	}
	return nil
}

// RunAll executes the Requests concurrently over the Runner's pool and
// yields each (*Experiment, error) pair as its request completes —
// completion order, not request order — so a consumer can report,
// persist, or aggregate results while slower simulations are still
// running instead of blocking on the full slice. Each pair is one
// request's Run result; on cancellation the remaining requests yield
// (nil, ctx's error).
//
// Breaking out of the range is clean: the remaining requests are
// cancelled, their simulations stop within one engine step, and no
// goroutines are left behind.
func (r *Runner) RunAll(ctx context.Context, reqs ...Request) iter.Seq2[*Experiment, error] {
	return func(yield func(*Experiment, error) bool) {
		if len(reqs) == 0 {
			return
		}
		// Derived cancel scope: an early break from the range tears the
		// remaining work down.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type done struct {
			exp *Experiment
			err error
		}
		// Buffered to len(reqs): a producer can always deliver, so an
		// abandoned iterator leaks nothing.
		ch := make(chan done, len(reqs))
		for _, req := range reqs {
			// One orchestrating goroutine per request; only the machine
			// simulations inside Run hold pool slots, so fan-out breadth
			// never deadlocks the pool (see par.Group).
			go func() {
				exp, err := r.Run(ctx, req)
				ch <- done{exp, err}
			}()
		}
		for range reqs {
			d := <-ch
			if !yield(d.exp, d.err) {
				return
			}
		}
	}
}
