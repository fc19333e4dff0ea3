package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The sweep workload is what a researcher waits for to regenerate the
// paper: tsreport's Runner.RunAll over the six apps at its defaults
// (Small scale, -target 60000, KeepTraces), one sweep at a time on the
// default GOMAXPROCS pool. No wire, server, gateway or store code runs,
// so a simulator change shows here and nowhere else.

// sweepTarget is tsreport's default -target.
const sweepTarget = 60000

// sweepOpSeconds is the nominal duration of one sweep on the reference
// host (2 vCPUs); -seconds is divided by it to fix the op count, so the
// work per run depends only on the arguments, never on a timer.
const sweepOpSeconds = 1.5

func sweepRequests(seed int64) []tempstream.Request {
	var reqs []tempstream.Request
	for _, app := range tempstream.Apps() {
		reqs = append(reqs, tempstream.Request{
			App: app, Scale: tempstream.Small, Seed: seed, TargetMisses: sweepTarget, KeepTraces: true,
		})
	}
	return reqs
}

// sweepRef holds, per app and context, the result every sweep must
// reproduce.
type sweepRef map[workload.App][tempstream.NumContexts]*server.SessionResult

type sweepState struct {
	runner *tempstream.Runner
	reqs   []tempstream.Request
	ref    sweepRef
}

// setupSweep runs one untimed warm-up sweep and builds the reference
// from its kept traces by a different path than the streaming Sessions
// under test: batch core.Analyze over each materialized trace, with the
// header re-derived from the trace itself.
func setupSweep(seed int64) (*sweepState, error) {
	st := &sweepState{runner: tempstream.NewRunner(), reqs: sweepRequests(seed), ref: sweepRef{}}
	exps, err := st.sweep()
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	type job struct {
		app workload.App
		c   tempstream.Context
		cr  *tempstream.ContextResult
	}
	var jobs []job
	for _, e := range exps {
		for _, c := range tempstream.Contexts() {
			jobs = append(jobs, job{e.App, c, e.Context(c)})
		}
	}
	res := make([]*server.SessionResult, len(jobs))
	parallel(len(jobs), func(i int) {
		tr := jobs[i].cr.Trace
		h := trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs}
		res[i] = server.ResultOf(&tempstream.ContextResult{Header: h, Analysis: core.Analyze(tr, core.Options{})})
	})
	for i, j := range jobs {
		r := st.ref[j.app]
		r[j.c] = res[i]
		st.ref[j.app] = r
	}
	return st, nil
}

// sweep is one op: RunAll over the six apps, every experiment kept until
// the sweep ends (as tsreport needs them all for its figures).
func (st *sweepState) sweep() ([]*tempstream.Experiment, error) {
	var exps []*tempstream.Experiment
	for exp, err := range st.runner.RunAll(context.Background(), st.reqs...) {
		if err != nil {
			return nil, err
		}
		exps = append(exps, exp)
	}
	return exps, nil
}

// checkSweep compares every context of a sweep with the reference and
// returns the records delivered to the analyses.
func (st *sweepState) checkSweep(exps []*tempstream.Experiment) (int64, error) {
	if len(exps) != len(st.reqs) {
		return 0, fmt.Errorf("sweep returned %d experiments, want %d", len(exps), len(st.reqs))
	}
	var records int64
	for _, e := range exps {
		for _, c := range tempstream.Contexts() {
			cr := e.Context(c)
			records += int64(cr.Header.Misses)
			if err := check(fmt.Sprintf("%v/%v", e.App, c), server.ResultOf(cr), st.ref[e.App][c]); err != nil {
				return records, err
			}
		}
	}
	return records, nil
}

func sweepOps(seconds int) int {
	return max(3, int(math.Round(float64(seconds)/sweepOpSeconds)))
}

func runSweep(cfg config) (*outcome, error) {
	st, setups, err := repeatSetup(cfg, func() (*sweepState, error) { return setupSweep(cfg.seed) }, func(*sweepState) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{ops: opLog{host: cfg.host}}
	n := sweepOps(cfg.seconds)
	p := &phase{host: cfg.host}
	var stageSec float64
	for i := 0; i < n; i++ {
		p.resume()
		t0 := time.Now()
		exps, err := st.sweep()
		lat := time.Since(t0)
		p.pause()
		var recs int64
		if err == nil {
			recs, err = st.checkSweep(exps)
		}
		out.ops.record(lat, err)
		if err == nil {
			p.records += recs
			for _, e := range exps {
				stageSec += e.Stages.MultiChipSimSeconds + e.Stages.SingleChipSimSeconds
			}
		}
		// The heap is read while the sweep's experiments are still held;
		// then every sweep starts from the same small live heap, as
		// tsreport's one sweep per process does.
		p.noteHeap()
		runtime.KeepAlive(exps)
		runtime.GC()
		cfg.host.after(lat)
	}
	cfg.host.flush()
	if !cfg.trace {
		out.metrics = endToEnd(setups, p, &out.ops, cfg.host)
		out.notes = append(out.notes, opNote(&out.ops), rawNote(setups, p, &out.ops), cfg.host.note())
		return out, nil
	}
	return tracedSweep(cfg, st, out, p, stageSec)
}

// tracedSweep repeats the sweep through the benchmark's own drive of
// workload.RunStreamContext into tempstream.Sessions — the serial drive
// Runner.Run performs, machine tasks GOMAXPROCS at a time — with spans
// around each call, then replays the simulator alone into trace.Discard.
func tracedSweep(cfg config, st *sweepState, out *outcome, untraced *phase, stageSec float64) (*outcome, error) {
	tr := newTracer()
	p := &phase{}
	traced := &opLog{}
	var analysed, simulated int64
	for op := 0; op < sweepOps(cfg.seconds); op++ {
		p.resume()
		t0 := time.Now()
		exps, recs, an, sim, err := st.tracedOnce(tr, op)
		lat := time.Since(t0)
		p.pause()
		if err == nil {
			_, err = st.checkSweep(exps)
		}
		traced.record(lat, err)
		if err == nil {
			p.records += recs
			analysed += an
			simulated += sim
		}
		runtime.GC() // as between untraced sweeps
	}
	out.ops.add(traced)
	if err := tr.dump(spanPath(cfg, "sweep")); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	tot, _ := totals(tr.spans)
	recs := p.records

	isoNs, isoRecs := isolatedSim(cfg.seed)

	l := &ledger{workload: "sweep", cpu: perRecord(p.cpu, recs)}
	l.add("workload.sim", perRecord(self["workload.RunStreamContext"], recs))
	l.add("core.feed", perRecord(tot["tempstream.session"], recs))
	l.add("core.finish", perRecord(tot["core.finish"], recs))

	m := zeroLayerMetrics()
	set(m, "workload.sim_ns_per_record", perRecord(self["workload.RunStreamContext"], recs))
	set(m, "workload.simulated_per_record", float64(simulated)/float64(recs))
	set(m, "par.busy_workers", stageSec/untraced.wall.Seconds())
	set(m, "tempstream.session_ns_per_record", perRecord(tot["tempstream.session"], recs))
	set(m, "core.finish_ns_per_record", perRecord(tot["core.finish"], analysed))
	set(m, "core.window_ratio", float64(analysed)/float64(recs))
	finishLedger(m, l, untraced, p)
	out.metrics = m
	out.notes = append(out.notes, opNote(&out.ops))
	out.notes = append(out.notes, l.lines()...)
	out.notes = append(out.notes,
		fmt.Sprintf("cross-check: traced workload.RunStreamContext spans %.2fs vs untraced Experiment.Stages machine-task seconds %.2fs (same op count)",
			tot["workload.RunStreamContext"].Seconds(), stageSec),
		fmt.Sprintf("isolated: workload.RunStream into trace.Discard, one thread: %.1f ns/record over %d records (span self time: %.1f)",
			perRecord(isoNs, isoRecs), isoRecs, perRecord(self["workload.RunStreamContext"], recs)))
	return out, nil
}

// tracedOnce is one traced sweep. It returns the experiments' contexts
// (for the reference check), the delivered, analysed and simulated record
// counts.
func (st *sweepState) tracedOnce(tr *tracer, op int) ([]*tempstream.Experiment, int64, int64, int64, error) {
	root := tr.begin("sweep", -1, op)
	defer tr.end(root)
	type task struct {
		req     tempstream.Request
		machine workload.MachineKind
	}
	var tasks []task
	exps := make([]*tempstream.Experiment, len(st.reqs))
	for i, req := range st.reqs {
		exps[i] = &tempstream.Experiment{App: req.App, Scale: req.Scale}
		tasks = append(tasks, task{req, workload.MultiChip}, task{req, workload.SingleChip})
	}
	errs := make([]error, len(tasks))
	// warm is each simulation's warm-up length as the simulator defaulted
	// it (Result.Config), so the count follows the simulator's own rule.
	warm := make([]int64, len(tasks))
	parallel(len(tasks), func(i int) {
		t := tasks[i]
		cpus := t.machine.CPUCount()
		opts := tempstream.StreamOptions{KeepTraces: true}
		off := tempstream.NewSession(cpus, sweepTarget, opts)
		offSink := newSpanSink(tr, -1, op, off, streamChunk)
		var intra *tempstream.Session
		var intraSink trace.Sink
		var intraSpan *spanSink
		if t.machine == workload.SingleChip {
			intra = tempstream.NewSession(cpus, 40*sweepTarget, opts)
			intraSpan = newSpanSink(tr, -1, op, intra, streamChunk)
			intraSink = intraSpan
		}
		sim := tr.begin("workload.RunStreamContext", root, op)
		offSink.parent = sim
		if intraSpan != nil {
			intraSpan.parent = sim
		}
		cfg := workload.Config{App: t.req.App, Machine: t.machine, Scale: t.req.Scale, Seed: t.req.Seed, TargetMisses: sweepTarget}
		res, err := workload.RunStreamContext(context.Background(), cfg, offSink, intraSink)
		tr.end(sim)
		if err != nil {
			off.Close()
			if intra != nil {
				intra.Close()
			}
			errs[i] = err
			return
		}
		warm[i] = int64(res.Config.WarmMisses)
		fin := tr.begin("core.finish", root, op)
		e := exps[i/2]
		if t.machine == workload.MultiChip {
			e.Contexts[tempstream.MultiChipCtx] = off.Result(res.SymTab)
		} else {
			e.Contexts[tempstream.SingleChipCtx] = off.Result(res.SymTab)
			e.Contexts[tempstream.IntraChipCtx] = intra.Result(res.SymTab)
		}
		tr.end(fin)
	})
	var delivered, analysed, simulated int64
	for i, err := range errs {
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("%v/%v: %w", tasks[i].req.App, tasks[i].machine, err)
		}
		simulated += warm[i]
	}
	for _, e := range exps {
		for _, c := range tempstream.Contexts() {
			cr := e.Context(c)
			delivered += int64(cr.Header.Misses)
			analysed += int64(len(cr.Analysis.Misses))
		}
	}
	return exps, delivered, analysed, simulated + delivered, nil
}

// isolatedSim replays the sweep's simulations alone — workload.RunStream
// into trace.Discard, one at a time on this goroutine — and returns the
// time and the records the streams would have delivered.
func isolatedSim(seed int64) (time.Duration, int64) {
	var d time.Duration
	var recs int64
	for _, req := range sweepRequests(seed) {
		for _, m := range []workload.MachineKind{workload.MultiChip, workload.SingleChip} {
			cfg := workload.Config{App: req.App, Machine: m, Scale: req.Scale, Seed: req.Seed, TargetMisses: sweepTarget}
			off, intra := &headerSink{}, &headerSink{}
			var intraSink trace.Sink
			if m == workload.SingleChip {
				intraSink = intra
			}
			start := time.Now()
			workload.RunStream(cfg, off, intraSink)
			d += time.Since(start)
			recs += int64(off.h.Misses + intra.h.Misses)
		}
	}
	return d, recs
}

// headerSink is trace.Discard that keeps the stream's header.
type headerSink struct {
	trace.Discard
	h trace.Header
}

func (s *headerSink) Finish(h trace.Header) { s.h = h }
