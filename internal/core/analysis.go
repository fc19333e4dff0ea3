// Package core implements the paper's analyses: SEQUITUR-based temporal
// stream identification (Section 3), miss-fraction breakdowns (Figure 2),
// the stride/repetition joint classification (Figure 3), stream-length and
// reuse-distance distributions (Figure 4), and the code-module attribution
// tables (Tables 3-5).
package core

import (
	"fmt"
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
	// Misses is the analysis window: the records the analysis read, in
	// order. It may share storage with the analyzed trace (or a
	// tempstream Session's kept trace, of which it is a prefix), so it
	// is read-only; its capacity equals its length, so an append to it
	// copies instead of overwriting the trace's later records.
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
// An Analyzer has one way in: Begin, then Observe per chunk of the stream
// as a producer emits it, then Finish. Observe runs the online passes —
// stride classification, per-CPU position accounting and the SEQUITUR
// append — over the records that fit the analysis window
// (Options.MaxMisses) and keeps no reference to them; the caller keeps
// the records Observe took and hands exactly those to Finish, which runs
// the passes that need the complete grammar (the derivation walk and the
// reuse-distance sweep). So each record lives in one place, the caller's:
// batch Analyze passes a prefix of the trace it was given, and a
// streaming consumer the window (or trace) it keeps anyway.
type Analyzer struct {
	g *sequitur.Grammar

	// State of the run between Begin and Finish. cur.Strided holds one
	// flag per record Observe took, so its length is the window's.
	cur  *Analysis
	opts Options
	det  *stride.Detector

	// Derivation scratch: the walk's top-level instances and maximal
	// later occurrences, and top-level occurrences so far per rule id.
	top, repeats []sequitur.Instance
	topOcc       []int32

	// Reuse-distance scratch: per-CPU miss positions accumulated online
	// during Observe, a finger into each, and where each rule id's last
	// top-level instance ended.
	cpuPos  [][]int32
	fingers []int32
	ends    []reuseMark
}

// reuseMark is where a rule's last top-level instance ended: the
// processor that issued the instance's first miss, and how many of that
// processor's misses precede the instance's end. cpu < 0 marks a rule
// with no instance yet.
type reuseMark struct{ cpu, rank int32 }

// NewAnalyzer returns an Analyzer with empty (lazily grown) storage.
func NewAnalyzer() *Analyzer { return &Analyzer{g: sequitur.New()} }

// Analyze runs the complete stream analysis over tr. The convenience
// wrapper for one-shot use; loops over many traces should reuse an
// Analyzer.
func Analyze(tr *trace.Trace, opts Options) *Analysis {
	return NewAnalyzer().Analyze(tr, opts)
}

// Analyze runs the complete stream analysis over tr, reusing the
// Analyzer's internal storage: Begin, one Observe over the whole trace,
// and Finish over the prefix it took, so the window is a prefix of
// tr.Misses and is not copied. The returned Analysis stays valid across
// later Analyze calls.
func (an *Analyzer) Analyze(tr *trace.Trace, opts Options) *Analysis {
	an.Begin(tr.CPUs, opts)
	an.Grow(len(tr.Misses))
	return an.Finish(tr.Misses[:an.Observe(tr.Misses)])
}

// Begin starts an analysis of a cpus-processor miss stream, resetting the
// grammar, stride, and scratch state from any previous run.
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

// Grow presizes the run's per-record storage for n further records,
// clamped to what the analysis window has left, so a producer with a
// known target avoids append re-doubling on the Observe path. It returns
// the clamped count, by which a caller presizes the window it keeps.
// Call after Begin.
func (an *Analyzer) Grow(n int) int {
	n = max(0, min(n, an.opts.MaxMisses-len(an.cur.Strided)))
	an.cur.Strided = slices.Grow(an.cur.Strided, n)
	return n
}

// Observe runs the online passes (stride classification, per-CPU position
// accounting, SEQUITUR append) over the leading records of ms that fit the
// analysis window (Options.MaxMisses) and returns how many it took. A
// return short of len(ms) means the window is full: later calls take
// nothing and allocate nothing, so a producer may keep streaming past the
// window at negligible cost, which bounds streaming memory to O(window).
// Observe keeps no reference to ms; the caller keeps the records taken, in
// order, for Finish.
func (an *Analyzer) Observe(ms []trace.Miss) int {
	a := an.cur
	base := len(a.Strided)
	ms = ms[:min(len(ms), an.opts.MaxMisses-base)]
	for i := range ms {
		a.Strided = append(a.Strided, an.det.Observe(int(ms[i].CPU), ms[i].Addr))
		an.cpuPos[ms[i].CPU] = append(an.cpuPos[ms[i].CPU], int32(base+i))
		an.g.Append(ms[i].Addr)
	}
	return len(ms)
}

// Finish completes the analysis begun by Begin. window must hold exactly
// the records Observe took, in order; it becomes Analysis.Misses (with
// its capacity cut to its length) without being copied, and Finish
// panics if its length differs from the count Observe took. The
// derivation walk (per-miss stream states, top-level instances, length
// distribution) and the reuse-distance pass run here, over the grammar
// the online passes built. The returned Analysis stays valid across
// later Begin/Analyze calls.
func (an *Analyzer) Finish(window []trace.Miss) *Analysis {
	a := an.cur
	if len(window) != len(a.Strided) {
		panic(fmt.Sprintf("core: Analyzer.Finish given %d records, but Observe took %d", len(window), len(a.Strided)))
	}
	an.cur = nil
	a.Misses = window[:len(window):len(window)]
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
	an.topOcc = resetTo(an.topOcc, g.RuleIDBound(), 0)
	a.Instances = slices.Grow(a.Instances, len(an.top))
	a.LengthDist.Grow(len(an.top))
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
	an.reuseDistances(a, g.RuleIDBound(), func(i int, d uint64) {
		if d <= an.opts.ReuseTruncate {
			a.ReuseDist.Add(float64(d), float64(a.Instances[i].Len))
		}
	})
	return a
}

// resetTo returns a slice of length n filled with v, reusing buf's
// storage when it is large enough.
func resetTo[T any](buf []T, n int, v T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// fill sets every element of states to st.
func fill(states []StreamState, st StreamState) {
	for i := range states {
		states[i] = st
	}
}

// reuseDistances calls add(i, d) for each top-level instance i whose rule
// had an earlier top-level instance, in order, where d counts the misses
// between that earlier instance's end and i's start issued by the
// processor that issued the earlier instance's first miss.
//
// d is a difference of ranks in that processor's position list
// (an.cpuPos[c] lists CPU c's trace positions in ascending order): its
// positions before i's start, less its positions before the earlier
// instance's end, counted as the pass left that instance. Top-level
// instances are disjoint and in trace order, so the positions the pass
// ranks — each instance's start, then its end — never decrease, and each
// CPU's rank is a finger that only moves forward: one linear pass over
// the window, with no search.
func (an *Analyzer) reuseDistances(a *Analysis, ruleBound int, add func(i int, d uint64)) {
	an.fingers = resetTo(an.fingers, len(an.cpuPos), 0)
	an.ends = resetTo(an.ends, ruleBound, reuseMark{cpu: -1})
	for i := range a.Instances {
		inst := &a.Instances[i]
		if e := an.ends[inst.RuleID]; e.cpu >= 0 {
			add(i, uint64(an.rank(e.cpu, int32(inst.Pos))-e.rank))
		}
		c := int32(a.Misses[inst.Pos].CPU)
		an.ends[inst.RuleID] = reuseMark{cpu: c, rank: an.rank(c, int32(inst.Pos+inst.Len))}
	}
}

// rank advances CPU c's finger past its positions before pos and returns
// how many there are. pos must not be below the finger's last query.
func (an *Analyzer) rank(c, pos int32) int32 {
	list, f := an.cpuPos[c], an.fingers[c]
	for int(f) < len(list) && list[f] < pos {
		f++
	}
	an.fingers[c] = f
	return f
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
