// Package core implements the paper's analyses: SEQUITUR-based temporal
// stream identification (Section 3), miss-fraction breakdowns (Figure 2),
// the stride/repetition joint classification (Figure 3), stream-length and
// reuse-distance distributions (Figure 4), and the code-module attribution
// tables (Tables 3-5).
package core

import (
	"slices"

	"repro/internal/sequitur"
	"repro/internal/stats"
	"repro/internal/stride"
	"repro/internal/trace"
)

// StreamState classifies one miss's relation to temporal streams
// (Figure 2's three segments).
type StreamState uint8

const (
	// NonRepetitive: the miss is not part of any repeated sequence of
	// length >= 2.
	NonRepetitive StreamState = iota
	// NewStream: the miss lies in the first occurrence of one or more
	// temporal streams (and in no recurring occurrence).
	NewStream
	// Recurring: the miss lies in the second or later occurrence of some
	// temporal stream.
	Recurring
)

func (s StreamState) String() string {
	switch s {
	case NonRepetitive:
		return "Non-repetitive"
	case NewStream:
		return "New stream"
	default:
		return "Recurring stream"
	}
}

// Instance is one occurrence of a temporal stream: a maximal repeated
// subsequence in the derivation (a rule instance appearing directly under
// the grammar's root).
type Instance struct {
	RuleID     int
	Occurrence int // 1 = first occurrence of this rule at top level
	Pos        int // starting miss index
	Len        int // misses covered
}

// DefaultMaxMisses is the analysis-window bound applied when
// Options.MaxMisses is zero (consumers that enforce their own ceilings,
// like the ingest server, reuse it).
const DefaultMaxMisses = 400000

// Options tunes an analysis.
type Options struct {
	// MaxMisses truncates the input trace (SEQUITUR and the derivation
	// walk are linear, but memory is ~100 bytes/miss). 0 means
	// DefaultMaxMisses.
	MaxMisses int
	// ReuseTruncate drops reuse distances above this many misses, as the
	// paper truncates its distributions at 10^7. 0 means 10^7.
	ReuseTruncate uint64
}

func (o Options) withDefaults() Options {
	if o.MaxMisses == 0 {
		o.MaxMisses = DefaultMaxMisses
	}
	if o.ReuseTruncate == 0 {
		o.ReuseTruncate = 10_000_000
	}
	return o
}

// Analysis is the full temporal-stream analysis of one miss trace.
type Analysis struct {
	Misses []trace.Miss
	CPUs   int

	// Per-miss classifications.
	State   []StreamState
	Strided []bool

	// Top-level stream instances in trace order.
	Instances []Instance

	// LengthDist is the distribution of stream-occurrence lengths weighted
	// by length (each occurrence contributes its misses), Figure 4 left.
	LengthDist *stats.WeightedSample
	// ReuseDist is the distribution of distances between consecutive
	// occurrences of the same stream, measured in intervening misses on
	// the first processor and weighted by the recurring occurrence's
	// length, Figure 4 right.
	ReuseDist *stats.LogHistogram

	grammarRules int
}

// Analyzer runs stream analyses while reusing all heavy intermediate
// storage across calls: the SEQUITUR grammar's node slab and digram index,
// the stride detector's tables, the derivation walk's instance lists, and
// the rule- and CPU-indexed scratch of the reuse-distance pass. One Analyzer
// amortizes allocation to near zero when analyzing many traces; it is not
// safe for concurrent use (give each goroutine its own, e.g. via a
// sync.Pool).
//
// An Analyzer runs in one of two equivalent modes:
//
//   - batch: Analyze(tr, opts) over a materialized trace;
//   - incremental: Begin, then Feed per miss as a producer emits it, then
//     Finish — the streaming pipeline's form, with peak memory bounded by
//     the analysis window (Options.MaxMisses) rather than the trace.
//
// The stride, per-CPU-position, and grammar passes run online during Feed;
// the derivation walk (per-miss stream states, instances, length
// distribution) and the reuse-distance pass need the complete grammar and
// run at Finish.
type Analyzer struct {
	g *sequitur.Grammar

	// Incremental state between Begin and Finish.
	cur  *Analysis
	opts Options
	det  *stride.Detector

	// Derivation scratch: the walk's top-level instances and maximal
	// later occurrences, and top-level occurrences so far per rule id.
	top, repeats []sequitur.Instance
	topOcc       []int32

	// Reuse-distance scratch: per-CPU miss positions accumulated online
	// during Feed, and the last top-level instance index per rule id.
	cpuPos  [][]int32
	lastIdx []int32
}

// NewAnalyzer returns an Analyzer with empty (lazily grown) storage.
func NewAnalyzer() *Analyzer { return &Analyzer{g: sequitur.New()} }

// Analyze runs the complete stream analysis over tr. The convenience
// wrapper for one-shot use; loops over many traces should reuse an
// Analyzer.
func Analyze(tr *trace.Trace, opts Options) *Analysis {
	return NewAnalyzer().Analyze(tr, opts)
}

// Analyze runs the complete stream analysis over tr, reusing the
// Analyzer's internal storage. The returned Analysis owns all of its
// fields and stays valid across later Analyze calls.
//
// Analyze is the batch form of Begin/Feed/Finish: it aliases the (already
// materialized) trace window instead of accumulating a copy, then runs the
// same online passes and the same finish-time passes.
func (an *Analyzer) Analyze(tr *trace.Trace, opts Options) *Analysis {
	an.Begin(tr.CPUs, opts)
	misses := tr.Misses
	if len(misses) > an.opts.MaxMisses {
		misses = misses[:an.opts.MaxMisses]
	}
	a := an.cur
	a.Misses = misses
	if len(misses) > 0 { // nil for empty input, as the incremental path yields
		a.Strided = make([]bool, len(misses))
	}
	for i := range misses {
		a.Strided[i] = an.det.Observe(int(misses[i].CPU), misses[i].Addr)
		an.cpuPos[misses[i].CPU] = append(an.cpuPos[misses[i].CPU], int32(i))
		an.g.Append(misses[i].Addr)
	}
	return an.Finish()
}

// Begin starts an incremental analysis over a cpus-processor miss stream,
// resetting the grammar, stride, and scratch state from any previous run.
func (an *Analyzer) Begin(cpus int, opts Options) {
	an.opts = opts.withDefaults()
	an.cur = &Analysis{
		CPUs:       cpus,
		LengthDist: &stats.WeightedSample{},
		ReuseDist:  stats.NewLogHistogram(10),
	}
	if an.det == nil || an.det.CPUs() != cpus {
		an.det = stride.New(cpus)
	} else {
		an.det.Reset()
	}
	if cap(an.cpuPos) < cpus {
		an.cpuPos = make([][]int32, cpus)
	}
	an.cpuPos = an.cpuPos[:cpus]
	for c := range an.cpuPos {
		an.cpuPos[c] = an.cpuPos[c][:0]
	}
	an.g.Reset()
}

// Grow pre-sizes the incremental window's storage for n further misses
// (clamped to the analysis window), so a producer with a known target
// avoids append re-doubling on the Feed path. Call after Begin.
func (an *Analyzer) Grow(n int) {
	a := an.cur
	if rem := an.opts.MaxMisses - len(a.Misses); n > rem {
		n = rem
	}
	if n <= 0 {
		return
	}
	a.Misses = slices.Grow(a.Misses, n)
	a.Strided = slices.Grow(a.Strided, n)
}

// Full reports whether the incremental window has reached the analysis
// bound (Options.MaxMisses): further Feed calls are no-ops, so producers
// may stop forwarding.
func (an *Analyzer) Full() bool { return len(an.cur.Misses) >= an.opts.MaxMisses }

// Feed consumes the next miss of the stream, running the online passes
// (stride classification, per-CPU position accounting, SEQUITUR append).
// Misses beyond the analysis window (Options.MaxMisses) are dropped, so a
// producer may keep feeding an already-full analyzer at negligible cost —
// this is what bounds streaming memory to O(window).
func (an *Analyzer) Feed(m trace.Miss) {
	a := an.cur
	if len(a.Misses) >= an.opts.MaxMisses {
		return
	}
	pos := int32(len(a.Misses))
	a.Misses = append(a.Misses, m)
	a.Strided = append(a.Strided, an.det.Observe(int(m.CPU), m.Addr))
	an.cpuPos[m.CPU] = append(an.cpuPos[m.CPU], pos)
	an.g.Append(m.Addr)
}

// FeedAll consumes a batch of consecutive stream records, equivalent to
// (but cheaper than) calling Feed on each: the window append is one bulk
// copy and the per-record dispatch disappears, which is what chunked
// producers (tempstream's streaming sinks) drive.
func (an *Analyzer) FeedAll(ms []trace.Miss) {
	a := an.cur
	if rem := an.opts.MaxMisses - len(a.Misses); len(ms) > rem {
		if rem <= 0 {
			return
		}
		ms = ms[:rem]
	}
	base := int32(len(a.Misses))
	a.Misses = append(a.Misses, ms...)
	for i := range ms {
		a.Strided = append(a.Strided, an.det.Observe(int(ms[i].CPU), ms[i].Addr))
		an.cpuPos[ms[i].CPU] = append(an.cpuPos[ms[i].CPU], base+int32(i))
		an.g.Append(ms[i].Addr)
	}
}

// Finish completes the analysis begun by Begin: the derivation walk (per-
// miss stream states, top-level instances, length distribution) and the
// reuse-distance pass run here, over the grammar the online passes built.
// The returned Analysis owns all of its fields and stays valid across
// later Begin/Analyze calls.
func (an *Analyzer) Finish() *Analysis {
	a := an.cur
	an.cur = nil
	a.State = make([]StreamState, len(a.Misses))
	if len(a.Misses) == 0 {
		return a
	}
	g := an.g
	a.grammarRules = g.RuleCount()

	// Walk the derivation: a miss is Recurring if any enclosing rule
	// instance is the second-or-later occurrence of its rule, NewStream if
	// it lies only inside first occurrences, NonRepetitive (State's zero
	// value) if it hangs directly off the root. Every top-level instance
	// becomes a stream instance, numbered among the top-level instances of
	// its rule.
	an.top, an.repeats = g.Derive(an.top[:0], an.repeats[:0])
	an.topOcc = resetInt32(an.topOcc, g.RuleIDBound(), 0)
	a.Instances = slices.Grow(a.Instances, len(an.top))
	for _, in := range an.top {
		an.topOcc[in.Rule]++
		a.Instances = append(a.Instances, Instance{
			RuleID:     int(in.Rule),
			Occurrence: int(an.topOcc[in.Rule]),
			Pos:        int(in.Pos),
			Len:        int(in.Len),
		})
		a.LengthDist.Add(float64(in.Len), float64(in.Len))
		fill(a.State[in.Pos:in.Pos+in.Len], NewStream)
	}
	for _, in := range an.repeats {
		fill(a.State[in.Pos:in.Pos+in.Len], Recurring)
	}

	// Reuse distances between consecutive top-level occurrences of the
	// same rule: count intervening misses on the processor that observed
	// the first occurrence (Section 4.5).
	an.computeReuseDistances(a, g.RuleIDBound())
	return a
}

// resetInt32 returns a slice of length n filled with fill, reusing buf's
// storage when it is large enough.
func resetInt32(buf []int32, n int, fill int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// fill sets every element of states to st.
func fill(states []StreamState, st StreamState) {
	for i := range states {
		states[i] = st
	}
}

// computeReuseDistances fills ReuseDist from the per-CPU miss-position
// lists the online passes accumulated (an.cpuPos[c] lists CPU c's trace
// positions in ascending order), so no per-rule map operations or counting
// passes are needed at finish time.
func (an *Analyzer) computeReuseDistances(a *Analysis, ruleBound int) {
	countBetween := func(cpu, lo, hi int) uint64 {
		// misses by cpu in positions [lo, hi)
		list := an.cpuPos[cpu]
		l, _ := slices.BinarySearch(list, int32(lo))
		r, _ := slices.BinarySearch(list, int32(hi))
		return uint64(r - l)
	}
	an.lastIdx = resetInt32(an.lastIdx, ruleBound, -1)
	for i := range a.Instances {
		inst := &a.Instances[i]
		if j := an.lastIdx[inst.RuleID]; j >= 0 {
			prev := &a.Instances[j]
			firstCPU := int(a.Misses[prev.Pos].CPU)
			d := countBetween(firstCPU, prev.Pos+prev.Len, inst.Pos)
			if d <= an.opts.ReuseTruncate {
				a.ReuseDist.Add(float64(d), float64(inst.Len))
			}
		}
		an.lastIdx[inst.RuleID] = int32(i)
	}
}

// StateCounts returns the number of misses in each StreamState, indexed
// by StreamState (the integer form of the Figure 2 breakdown, used by the
// ingest server's session results and the live windowed reporters).
func (a *Analysis) StateCounts() [3]int {
	var counts [3]int
	for _, s := range a.State {
		counts[s]++
	}
	return counts
}

// StridedCount returns the number of misses classified as strided.
func (a *Analysis) StridedCount() int {
	n := 0
	for _, s := range a.Strided {
		if s {
			n++
		}
	}
	return n
}

// Fractions returns the Figure 2 breakdown: fraction of misses that are
// non-repetitive, in a new stream, and in a recurring stream.
func (a *Analysis) Fractions() (nonRep, newStream, recurring float64) {
	if len(a.State) == 0 {
		return 0, 0, 0
	}
	counts := a.StateCounts()
	n := float64(len(a.State))
	return float64(counts[NonRepetitive]) / n,
		float64(counts[NewStream]) / n,
		float64(counts[Recurring]) / n
}

// InStreams reports whether miss i is part of a temporal stream.
func (a *Analysis) InStreams(i int) bool { return a.State[i] != NonRepetitive }

// StreamFraction returns the total fraction of misses inside temporal
// streams (new + recurring).
func (a *Analysis) StreamFraction() float64 {
	nr, ns, rc := a.Fractions()
	_ = nr
	return ns + rc
}

// StrideJoint returns the Figure 3 joint breakdown, in the paper's
// stacking order: repetitive-strided, repetitive-non-strided,
// non-repetitive-non-strided, non-repetitive-strided.
func (a *Analysis) StrideJoint() (repStr, repNon, nonNon, nonStr float64) {
	if len(a.State) == 0 {
		return
	}
	var rs, rn, nn, ns int
	for i := range a.State {
		rep := a.State[i] != NonRepetitive
		switch {
		case rep && a.Strided[i]:
			rs++
		case rep && !a.Strided[i]:
			rn++
		case !rep && !a.Strided[i]:
			nn++
		default:
			ns++
		}
	}
	n := float64(len(a.State))
	return float64(rs) / n, float64(rn) / n, float64(nn) / n, float64(ns) / n
}

// MedianStreamLength returns the 50th percentile of the length-weighted
// stream length distribution.
func (a *Analysis) MedianStreamLength() float64 { return a.LengthDist.Quantile(0.5) }

// GrammarRules returns the number of distinct temporal streams (live
// SEQUITUR rules).
func (a *Analysis) GrammarRules() int { return a.grammarRules }

// CategoryRow is one line of the paper's Tables 3-5.
type CategoryRow struct {
	Category trace.Category
	// MissFrac is the category's share of all misses.
	MissFrac float64
	// StreamFrac is the share of all misses that are in this category AND
	// inside a temporal stream (the tables' "% in streams" column).
	StreamFrac float64
}

// CategoryTable aggregates the module-attribution table over the given
// category list (plus CatUnknown first, as in the paper). st resolves each
// miss's function to its category.
func (a *Analysis) CategoryTable(st *trace.SymbolTable, cats []trace.Category) []CategoryRow {
	idx := make(map[trace.Category]int, len(cats)+1)
	rows := make([]CategoryRow, 0, len(cats)+1)
	add := func(c trace.Category) {
		idx[c] = len(rows)
		rows = append(rows, CategoryRow{Category: c})
	}
	add(trace.CatUnknown)
	for _, c := range cats {
		add(c)
	}
	if len(a.Misses) == 0 {
		return rows
	}
	miss := make([]int, len(rows))
	inStream := make([]int, len(rows))
	for i := range a.Misses {
		c := st.CategoryOf(a.Misses[i].Func)
		j, ok := idx[c]
		if !ok {
			j = idx[trace.CatUnknown]
		}
		miss[j]++
		if a.InStreams(i) {
			inStream[j]++
		}
	}
	n := float64(len(a.Misses))
	for j := range rows {
		rows[j].MissFrac = float64(miss[j]) / n
		rows[j].StreamFrac = float64(inStream[j]) / n
	}
	return rows
}
