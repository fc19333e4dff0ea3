package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	tempstream "repro"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The query workload is what an analyst runs: one caller making
// store.Analyze calls shaped like `tsquery analyze` against a store of
// the ingest job list's archives, written in setup. Most calls analyse
// one whole archive at the default window; a fixed share narrows with
// the CLI's -from/-to, -cpu, -class and -category options. core does
// most of the work; the store and wire decode sit in front of it.

// queryPassSeconds is the nominal duration of one pass over the call
// list on the reference host; -seconds is divided by it to fix the pass
// count.
const queryPassSeconds = 0.3

// queryCall is one store.Analyze call and the result it must return.
type queryCall struct {
	name    string
	q       store.Query
	records int64 // records the call decodes from the archive
	ref     *server.SessionResult
}

type queryState struct {
	dir   string
	st    *store.Store
	calls []*queryCall
}

// narrowing is one of the call list's narrowed calls: the archive it
// reads (by label) and how it cuts the stream.
type narrowing struct {
	label string
	kind  string // "range", "cpu", "class" or "category"
}

// narrowed is the fixed share of narrowed calls: 7 of the 25 calls per
// pass. 25 calls put the nearest-rank p50 and p90 (ranks 12.5 and 22.5
// of 25 per pass) mid-way inside one call's group of repeats instead of
// on the boundary between two.
var narrowed = []narrowing{
	{"OLTP/single-chip/intra", "range"},
	{"Apache/multi-chip", "cpu"},
	{"OLTP/multi-chip", "class"},
	{"Apache/single-chip/intra", "category"},
	{"Zeus/single-chip/intra", "range"},
	{"Qry2/single-chip", "cpu"},
	{"Qry1/multi-chip", "class"},
}

func setupQuery(seed int64, dir string) (*queryState, error) {
	streams, err := recordJobs(seed)
	if err != nil {
		return nil, err
	}
	s := &queryState{dir: dir}
	w, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, j := range streams {
		aw, err := w.NewWriter(store.Meta{App: j.app.String(), Machine: j.machine.String(), Scale: "small", Seed: seed, Label: j.label}, j.cpus())
		if err != nil {
			return nil, err
		}
		aw.AppendBatch(j.misses)
		aw.Finish(j.header)
		aw.SetSymbols(wire.FuncsOf(j.symtab))
		if _, err := aw.Commit(); err != nil {
			return nil, fmt.Errorf("archiving %s: %w", j.label, err)
		}
	}
	st, damaged, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if len(damaged) > 0 {
		return nil, fmt.Errorf("fresh store has damaged entries: %v", damaged[0])
	}
	s.st = st
	ids := map[string]string{} // archive ID by label
	for _, e := range st.Entries() {
		ids[e.Label] = e.ID
	}
	byLabel := map[string]*stream{}
	var refJobs []func() *server.SessionResult
	for _, j := range streams {
		byLabel[j.label] = j
		c := &queryCall{name: j.label, q: store.Query{ID: ids[j.label]}, records: int64(len(j.misses))}
		s.calls = append(s.calls, c)
		refJobs = append(refJobs, func() *server.SessionResult {
			return sessionReference(j.cpus(), j.misses, j.header, 0)
		})
	}
	for _, n := range narrowed {
		j, ok := byLabel[n.label]
		if !ok {
			return nil, fmt.Errorf("no recorded stream %s", n.label)
		}
		c, keep := narrow(n, j, seed)
		c.q.ID = ids[j.label]
		s.calls = append(s.calls, c)
		refJobs = append(refJobs, func() *server.SessionResult {
			ms := j.misses
			if c.q.From > 0 || c.q.To > 0 {
				ms = ms[c.q.From:c.q.To]
			}
			var kept []trace.Miss
			for _, m := range ms {
				if keep(m) {
					kept = append(kept, m)
				}
			}
			return sessionReference(j.cpus(), kept, j.header, 0)
		})
	}
	parallel(len(refJobs), func(i int) { s.calls[i].ref = refJobs[i]() })
	// One untimed warm-up op.
	if _, err := s.call(nil, -1, s.calls[0]); err != nil {
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return s, nil
}

// narrow builds a narrowed call over stream j and the in-process filter
// its reference applies.
func narrow(n narrowing, j *stream, seed int64) (*queryCall, func(trace.Miss) bool) {
	c := &queryCall{name: n.label + " -" + n.kind, records: int64(len(j.misses))}
	all := func(trace.Miss) bool { return true }
	switch n.kind {
	case "range":
		from := int64(len(j.misses) / 4)
		c.q.From, c.q.To = from, min(from+jobTarget, int64(len(j.misses)))
		return c, all
	case "cpu":
		cpu := int(seed % int64(j.cpus()))
		if cpu < 0 {
			cpu += j.cpus()
		}
		c.q.CPU = &cpu
		return c, func(m trace.Miss) bool { return int(m.CPU) == cpu }
	case "class":
		class := trace.Coherence
		if j.app.Class() == "DSS" {
			class = trace.Replacement
		}
		c.q.Class = &class
		return c, func(m trace.Miss) bool { return m.Class == class }
	default: // category: the stream's most frequent one
		var counts [trace.NumCategories]int
		for _, m := range j.misses {
			counts[j.symtab.CategoryOf(m.Func)]++
		}
		best := trace.Category(0)
		for cat := range counts {
			if counts[cat] > counts[best] {
				best = trace.Category(cat)
			}
		}
		c.q.Category = &best
		c.records *= 2 // a category filter decodes the archive twice
		return c, func(m trace.Miss) bool { return j.symtab.CategoryOf(m.Func) == best }
	}
}

// call is one op: store.Analyze over one archive (or, traced, the same
// steps with spans), checked against the call's reference. It returns
// the records decoded, delivered to the Session and analysed.
func (s *queryState) call(tr *tracer, op int, c *queryCall) (counts [3]int64, err error) {
	var cr *tempstream.ContextResult
	if tr == nil {
		results, errs := s.st.Analyze(c.q, tempstream.StreamOptions{})
		if len(errs) > 0 {
			return counts, fmt.Errorf("%s: %w", c.name, errs[0])
		}
		if len(results) != 1 {
			return counts, fmt.Errorf("%s: %d results, want 1", c.name, len(results))
		}
		cr = results[0].Context
	} else {
		var delivered int64
		cr, delivered, err = s.tracedAnalyze(tr, op, c)
		if err != nil {
			return counts, err
		}
		counts[1] = delivered
	}
	counts[0] = c.records
	counts[2] = int64(len(cr.Analysis.Misses))
	return counts, check(c.name, server.ResultOf(cr), c.ref)
}

// tracedAnalyze performs store.Analyze's steps for one selected archive
// — Select, a Session, Store.Stream into it, Result — with spans around
// the calls into the store and the Session.
func (s *queryState) tracedAnalyze(tr *tracer, op int, c *queryCall) (*tempstream.ContextResult, int64, error) {
	root := tr.begin("query.call", -1, op)
	defer tr.end(root)
	entries := s.st.Select(c.q)
	if len(entries) != 1 {
		return nil, 0, fmt.Errorf("%s: %d archives selected, want 1", c.name, len(entries))
	}
	e := entries[0]
	ts := tempstream.NewSession(e.CPUs, int(e.Records), tempstream.StreamOptions{})
	span := tr.begin("store.stream", root, op)
	sink := newSpanSink(tr, span, op, ts, 0)
	trl, err := s.st.Stream(e, sink, c.q)
	tr.end(span)
	if err != nil {
		ts.Close()
		return nil, 0, fmt.Errorf("%s: %w", c.name, err)
	}
	fin := tr.begin("core.finish", root, op)
	cr := ts.Result(trl.SymbolTable())
	tr.end(fin)
	return cr, sink.delivered, nil
}

func queryPasses(seconds int) int {
	return max(4, int(math.Round(float64(seconds)/queryPassSeconds)))
}

// timed runs the fixed pass list and returns the phase with the
// delivered and analysed record totals. With host set, host-speed
// samples follow the passes (see hostSpeed.after), outside the timer.
func (s *queryState) timed(tr *tracer, host *hostSpeed, passes int, ops *opLog) (*phase, int64, int64) {
	p := &phase{host: host}
	var delivered, analysed int64
	op := 0
	for i := 0; i < passes; i++ {
		p.resume()
		for _, c := range s.calls {
			t0 := time.Now()
			counts, err := s.call(tr, op, c)
			ops.record(time.Since(t0), err)
			op++
			if err == nil {
				p.records += counts[0]
				delivered += counts[1]
				analysed += counts[2]
			}
		}
		p.pause()
		if host != nil {
			host.after(p.stretches[len(p.stretches)-1].wall)
		}
	}
	if host != nil {
		host.flush()
	}
	return p, delivered, analysed
}

// heapPeak runs each call once more after the timed phase and reads the
// live heap while its result is still held: the memory an analyst's
// largest query needs.
func (s *queryState) heapPeak(p *phase) error {
	for _, c := range s.calls {
		results, errs := s.st.Analyze(c.q, tempstream.StreamOptions{})
		if len(errs) > 0 {
			return fmt.Errorf("%s: %w", c.name, errs[0])
		}
		p.noteHeap()
		runtime.KeepAlive(results)
	}
	return nil
}

func runQuery(cfg config) (*outcome, error) {
	rep := 0
	st, setups, err := repeatSetup(cfg, func() (*queryState, error) {
		rep++
		return setupQuery(cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("query-%d", rep)))
	}, func(s *queryState) { removeAll(s.dir) })
	if err != nil {
		return nil, err
	}
	defer removeAll(st.dir)
	out := &outcome{ops: opLog{host: cfg.host}}
	passes := queryPasses(cfg.seconds)
	p, _, _ := st.timed(nil, cfg.host, passes, &out.ops)
	if err := st.heapPeak(p); err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.metrics = endToEnd(setups, p, &out.ops, cfg.host)
		out.notes = append(out.notes, opNote(&out.ops), rawNote(setups, p, &out.ops), cfg.host.note())
		return out, nil
	}
	return tracedQuery(cfg, st, out, p, passes)
}

// tracedQuery repeats the passes with spans and prints the per-layer
// metrics. It also measures the ingest path's layers — server, gateway,
// wire encode, store writes — with a short live section replaying the
// job list through tsgate into tsserved: an ingest workload driving that
// path end to end was too unsteady on a shared host to gate on (see
// README.md), so its layers are reported here. Where both measure a
// metric, the query's value is the one reported.
func tracedQuery(cfg config, st *queryState, out *outcome, untraced *phase, passes int) (*outcome, error) {
	m := zeroLayerMetrics()
	ing, err := setupIngest(cfg.seed, filepath.Join(cfg.dir, "ingest"))
	if err != nil {
		return nil, err
	}
	il, _, err := ing.layers(cfg, ingestPasses(cfg.seconds), &out.ops, m)
	ing.stop()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	traced := &opLog{}
	p, delivered, analysed := st.timed(tr, nil, passes, traced)
	out.ops.add(traced)
	if err := tr.dump(spanPath(cfg, "query")); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	tot, _ := totals(tr.spans)
	recs := p.records

	var opens []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, _, err := store.Open(st.dir); err != nil {
			return nil, err
		}
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e6)
	}
	decode, stream, isoRecs, err := isolateArchives(st.st)
	if err != nil {
		return nil, err
	}
	var bytes, records int64
	for _, e := range st.st.Entries() {
		bytes += e.Bytes
		records += e.Records
	}

	l := &ledger{workload: "query", cpu: perRecord(p.cpu, recs)}
	l.add("store.stream", perRecord(self["store.stream"], recs))
	l.add("core.feed", perRecord(tot["tempstream.session"], recs))
	l.add("core.finish", perRecord(tot["core.finish"], recs))

	set(m, "tempstream.session_ns_per_record", perRecord(tot["tempstream.session"], recs))
	set(m, "core.finish_ns_per_record", perRecord(tot["core.finish"], analysed))
	set(m, "core.window_ratio", float64(analysed)/float64(delivered))
	set(m, "wire.decode_ns_per_record", perRecord(decode, isoRecs))
	set(m, "store.bytes_per_record", float64(bytes)/float64(records))
	set(m, "store.open_ms", quantile(opens, 0.5))
	set(m, "store.stream_ns_per_record", perRecord(self["store.stream"], recs))
	set(m, "store.delivered_ratio", float64(delivered)/float64(recs))
	finishLedger(m, l, untraced, p)
	out.metrics = m
	out.notes = append(out.notes, opNote(&out.ops))
	out.notes = append(out.notes, l.lines()...)
	out.notes = append(out.notes, fmt.Sprintf("isolated: wire.Decoder.Run %.1f ns/record, Store.Stream into trace.Discard %.1f ns/record, over %d archived records",
		perRecord(decode, isoRecs), perRecord(stream, isoRecs), isoRecs))
	out.notes = append(out.notes, il.lines()...)
	out.notes = append(out.notes, fmt.Sprintf("ledger   data path (wire+gateway+server+store) %.1f vs core %.1f ns/record",
		il.share("wire", "gateway", "server", "store"), il.share("core")))
	return out, nil
}
