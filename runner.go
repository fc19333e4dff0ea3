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
	// KeepTraces materializes the per-context traces (ContextResult.Trace
	// and the raw workload results' OffChip/IntraChip), costing O(trace)
	// memory. Off by default — results then carry only headers and
	// analyses, and peak memory is bounded by the analysis window.
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
// trace.Pipelined ring, so the simulator's emission overlaps the
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
	expect := req.TargetMisses
	if expect == 0 {
		expect = workload.DefaultTargetMisses
	}
	opts := req.stream()
	exp := &Experiment{App: req.App, Scale: req.Scale, Stages: &StageStats{}}
	var mcErr, scErr error
	g := par.Group{Pool: r.pool}
	g.GoCtx(ctx, func() {
		start := time.Now()
		s := NewSession(workload.MultiChip.CPUCount(), expect, opts)
		p := trace.NewPipelined(s)
		res, err := workload.RunStreamContext(ctx, req.config(workload.MultiChip), p, nil)
		// Drain the ring before touching the session: after this the
		// session has seen every record (and, on success, the Finish).
		p.Close()
		exp.Stages.Pipeline[MultiChipCtx] = p.Stats()
		exp.Stages.MultiChipSimSeconds = time.Since(start).Seconds()
		exp.Stages.AnalyzeSeconds[MultiChipCtx] = s.BusySeconds()
		if err != nil {
			mcErr = err
			s.Close()
			return
		}
		cr := s.Result(res.SymTab)
		if req.KeepTraces {
			res.OffChip = cr.Trace
		}
		exp.MultiChip = res
		exp.Contexts[MultiChipCtx] = cr
	})
	g.GoCtx(ctx, func() {
		start := time.Now()
		off := NewSession(workload.SingleChip.CPUCount(), expect, opts)
		// The intra-chip stream runs up to 40x the off-chip target (the
		// workload runner's measurement cap).
		intra := NewSession(workload.SingleChip.CPUCount(), 40*expect, opts)
		offP, intraP := trace.NewPipelined(off), trace.NewPipelined(intra)
		res, err := workload.RunStreamContext(ctx, req.config(workload.SingleChip), offP, intraP)
		offP.Close()
		intraP.Close()
		exp.Stages.Pipeline[SingleChipCtx] = offP.Stats()
		exp.Stages.Pipeline[IntraChipCtx] = intraP.Stats()
		exp.Stages.SingleChipSimSeconds = time.Since(start).Seconds()
		exp.Stages.AnalyzeSeconds[SingleChipCtx] = off.BusySeconds()
		exp.Stages.AnalyzeSeconds[IntraChipCtx] = intra.BusySeconds()
		if err != nil {
			scErr = err
			off.Close()
			intra.Close()
			return
		}
		offCR := off.Result(res.SymTab)
		intraCR := intra.Result(res.SymTab)
		if req.KeepTraces {
			res.OffChip = offCR.Trace
			res.IntraChip = intraCR.Trace
		}
		exp.SingleChip = res
		exp.Contexts[SingleChipCtx] = offCR
		exp.Contexts[IntraChipCtx] = intraCR
	})
	g.Wait()
	// A cancelled context may also have skipped a task before it ever
	// acquired a slot (GoCtx), so check it before the per-task errors.
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	if mcErr != nil {
		return nil, mcErr
	}
	if scErr != nil {
		return nil, scErr
	}
	return exp, nil
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
