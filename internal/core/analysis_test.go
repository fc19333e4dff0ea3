package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memmap"
	"repro/internal/trace"
)

// mkTrace builds a single-CPU trace from block indices.
func mkTrace(blocks ...uint64) *trace.Trace {
	tr := &trace.Trace{CPUs: 1}
	for _, b := range blocks {
		tr.Append(trace.Miss{Addr: b << 6, CPU: 0})
	}
	return tr
}

func TestEmptyTrace(t *testing.T) {
	a := Analyze(&trace.Trace{CPUs: 1}, Options{})
	if a.StreamFraction() != 0 || len(a.Instances) != 0 {
		t.Error("empty trace should yield empty analysis")
	}
}

func TestAllUniqueIsNonRepetitive(t *testing.T) {
	a := Analyze(mkTrace(1, 2, 3, 4, 5, 6, 7, 8), Options{})
	nr, ns, rc := a.Fractions()
	if nr != 1 || ns != 0 || rc != 0 {
		t.Errorf("fractions = %v %v %v, want 1 0 0", nr, ns, rc)
	}
}

func TestSimpleRepetition(t *testing.T) {
	// a b c d | a b c d : the second occurrence must be recurring and the
	// first must become a new stream.
	a := Analyze(mkTrace(1, 2, 3, 4, 1, 2, 3, 4), Options{})
	nr, ns, rc := a.Fractions()
	if nr != 0 {
		t.Errorf("non-repetitive = %v, want 0", nr)
	}
	if ns != 0.5 || rc != 0.5 {
		t.Errorf("new/recurring = %v/%v, want 0.5/0.5", ns, rc)
	}
	if got := a.MedianStreamLength(); got != 4 {
		t.Errorf("median length = %v, want 4", got)
	}
}

func TestRepetitionWithNoise(t *testing.T) {
	// Distinct noise blocks around two occurrences of a 3-block stream.
	a := Analyze(mkTrace(100, 1, 2, 3, 101, 102, 1, 2, 3, 103), Options{})
	nr, ns, rc := a.Fractions()
	if ns != 0.3 || rc != 0.3 {
		t.Errorf("new/recurring = %v/%v, want 0.3/0.3", ns, rc)
	}
	if nr != 0.4 {
		t.Errorf("non-repetitive = %v, want 0.4", nr)
	}
}

func TestReuseDistanceSingleCPU(t *testing.T) {
	// Stream of length 3 at positions 0 and 8: 5 intervening misses.
	a := Analyze(mkTrace(1, 2, 3, 10, 11, 12, 13, 14, 1, 2, 3), Options{})
	if a.ReuseDist.Total() == 0 {
		t.Fatal("no reuse distances recorded")
	}
	bs := a.ReuseDist.Buckets()
	// distance 5 lands in bucket [1,10).
	found := false
	for _, b := range bs {
		if b.Lo <= 5 && 5 < b.Hi && b.Weight > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("distance 5 not in histogram: %+v", bs)
	}
}

func TestReuseDistanceCountsFirstProcessorOnly(t *testing.T) {
	// CPU0 sees the stream twice; between occurrences, CPU1 issues many
	// misses that must NOT count toward the distance.
	tr := &trace.Trace{CPUs: 2}
	add := func(cpu int, blocks ...uint64) {
		for _, b := range blocks {
			tr.Append(trace.Miss{Addr: b << 6, CPU: uint8(cpu)})
		}
	}
	add(0, 1, 2, 3)
	add(1, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61)
	add(0, 200, 201) // two intervening misses on cpu0
	add(0, 1, 2, 3)
	a := Analyze(tr, Options{})
	// The recorded distance must be 2 (cpu0's misses), not 14.
	bs := a.ReuseDist.Buckets()
	var got float64 = -1
	for _, b := range bs {
		if b.Weight > 0 {
			got = b.Lo
			break
		}
	}
	if got != 1 { // distance 2 falls in bucket [1,10)
		t.Errorf("first populated bucket starts at %v, want 1 ([1,10) holding distance 2)", got)
	}
	if a.ReuseDist.Total() != 3 { // weighted by recurring length
		t.Errorf("reuse mass = %v, want 3", a.ReuseDist.Total())
	}
}

func TestStrideJointTotalsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{CPUs: 2}
	base := uint64(1 << 20)
	for i := 0; i < 500; i++ {
		var addr uint64
		if i%3 == 0 {
			addr = base + uint64(i)*memmap.BlockSize // strided component
		} else {
			addr = uint64(rng.Intn(10000)) << 6
		}
		tr.Append(trace.Miss{Addr: addr, CPU: uint8(i % 2)})
	}
	a := Analyze(tr, Options{})
	rs, rn, nn, ns := a.StrideJoint()
	sum := rs + rn + nn + ns
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("joint fractions sum to %v", sum)
	}
}

func TestStreamFractionRisesWithRepetition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Random trace: low repetition. Loop trace: near-total repetition.
	var random, loop []uint64
	for i := 0; i < 4000; i++ {
		random = append(random, uint64(rng.Intn(1_000_000)))
		loop = append(loop, uint64(i%37))
	}
	ar := Analyze(mkTrace(random...), Options{})
	al := Analyze(mkTrace(loop...), Options{})
	if ar.StreamFraction() > 0.2 {
		t.Errorf("random trace stream fraction = %v, want < 0.2", ar.StreamFraction())
	}
	if al.StreamFraction() < 0.95 {
		t.Errorf("loop trace stream fraction = %v, want > 0.95", al.StreamFraction())
	}
}

func TestCategoryTable(t *testing.T) {
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	fa := st.Register("fa", trace.CatScheduler, 0)
	fb := st.Register("fb", trace.CatBulkCopy, 0)

	tr := &trace.Trace{CPUs: 1}
	// fa misses form a repeated stream; fb misses are unique.
	seq := []uint64{1, 2, 3, 1, 2, 3}
	for _, b := range seq {
		tr.Append(trace.Miss{Addr: b << 6, CPU: 0, Func: fa})
	}
	for i := uint64(0); i < 6; i++ {
		tr.Append(trace.Miss{Addr: (1000 + i) << 6, CPU: 0, Func: fb})
	}
	a := Analyze(tr, Options{})
	rows := a.CategoryTable(st, []trace.Category{trace.CatScheduler, trace.CatBulkCopy})
	byCat := map[trace.Category]CategoryRow{}
	for _, r := range rows {
		byCat[r.Category] = r
	}
	if got := byCat[trace.CatScheduler]; got.MissFrac != 0.5 || got.StreamFrac != 0.5 {
		t.Errorf("scheduler row = %+v, want 0.5/0.5", got)
	}
	if got := byCat[trace.CatBulkCopy]; got.MissFrac != 0.5 || got.StreamFrac != 0 {
		t.Errorf("copy row = %+v, want 0.5/0.0", got)
	}
}

func TestMaxMissesTruncation(t *testing.T) {
	var blocks []uint64
	for i := 0; i < 1000; i++ {
		blocks = append(blocks, uint64(i%10))
	}
	a := Analyze(mkTrace(blocks...), Options{MaxMisses: 100})
	if len(a.Misses) != 100 || len(a.State) != 100 {
		t.Errorf("truncation failed: %d misses", len(a.Misses))
	}
}

// TestAnalyzerReuseMatchesFresh checks that one Analyzer reused across
// different traces produces exactly the analyses a fresh Analyze yields:
// no state may leak between runs through the recycled grammar or scratch.
func TestAnalyzerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	traces := []*trace.Trace{
		mkTrace(1, 2, 3, 4, 1, 2, 3, 4),
		mkTrace(), // empty between real traces
	}
	var noisy, loopy []uint64
	for i := 0; i < 3000; i++ {
		noisy = append(noisy, uint64(rng.Intn(500)))
		loopy = append(loopy, uint64(i%29))
	}
	traces = append(traces, mkTrace(noisy...), mkTrace(loopy...), mkTrace(noisy...))
	// A multi-CPU trace exercises the per-CPU reuse-distance scratch.
	multi := &trace.Trace{CPUs: 4}
	for i := 0; i < 2000; i++ {
		multi.Append(trace.Miss{Addr: uint64(i%37) << 6, CPU: uint8(i % 4)})
	}
	traces = append(traces, multi)

	an := NewAnalyzer()
	for i, tr := range traces {
		got := an.Analyze(tr, Options{})
		want := Analyze(tr, Options{})
		if !reflect.DeepEqual(got.State, want.State) ||
			!reflect.DeepEqual(got.Instances, want.Instances) ||
			!reflect.DeepEqual(got.Strided, want.Strided) {
			t.Fatalf("trace %d: reused Analyzer diverged from fresh analysis", i)
		}
		if !reflect.DeepEqual(got.ReuseDist.Buckets(), want.ReuseDist.Buckets()) {
			t.Fatalf("trace %d: reuse-distance histograms differ", i)
		}
		if got.GrammarRules() != want.GrammarRules() {
			t.Fatalf("trace %d: grammar rules %d vs %d", i, got.GrammarRules(), want.GrammarRules())
		}
	}
}

// TestIncrementalMatchesBatch is the core streaming≡batch guard at the
// analyzer level: Begin, Observe over the stream's chunks, and Finish over
// the records Observe took must reproduce Analyze over the materialized
// trace field for field, including truncation and analyzer reuse across
// runs.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mk := func(n, mod, cpus int) *trace.Trace {
		tr := &trace.Trace{CPUs: cpus}
		for i := 0; i < n; i++ {
			var b uint64
			if rng.Intn(3) == 0 {
				b = uint64(rng.Intn(1 << 30)) // noise
			} else {
				b = uint64(i % mod) // loops
			}
			tr.Append(trace.Miss{Addr: b << 6, CPU: uint8(rng.Intn(cpus))})
		}
		return tr
	}
	cases := []struct {
		tr   *trace.Trace
		opts Options
	}{
		{mkTrace(1, 2, 3, 4, 1, 2, 3, 4), Options{}},
		{mkTrace(), Options{}},
		{mk(3000, 41, 4), Options{}},
		{mk(5000, 23, 2), Options{MaxMisses: 1200}}, // stream longer than the window
		{mk(800, 17, 16), Options{ReuseTruncate: 50}},
	}
	an := NewAnalyzer()
	for i, c := range cases {
		an.Begin(c.tr.CPUs, c.opts)
		// Alternate one-record and randomly-sized chunks, as a chunked
		// producer would, keeping the records Observe takes.
		var window []trace.Miss
		for rest := c.tr.Misses; len(rest) > 0; {
			n := 1
			if rng.Intn(2) == 0 {
				n += rng.Intn(len(rest))
			}
			window = append(window, rest[:an.Observe(rest[:n])]...)
			rest = rest[n:]
		}
		got := an.Finish(window)
		want := Analyze(c.tr, c.opts)
		if !reflect.DeepEqual(got.State, want.State) ||
			!reflect.DeepEqual(got.Instances, want.Instances) ||
			!reflect.DeepEqual(got.Strided, want.Strided) {
			t.Fatalf("case %d: incremental analysis diverged from batch", i)
		}
		if len(got.Misses) != len(want.Misses) {
			t.Fatalf("case %d: window %d vs %d misses", i, len(got.Misses), len(want.Misses))
		}
		for j := range got.Misses {
			if got.Misses[j] != want.Misses[j] {
				t.Fatalf("case %d: miss %d differs", i, j)
			}
		}
		if !reflect.DeepEqual(got.ReuseDist.Buckets(), want.ReuseDist.Buckets()) {
			t.Fatalf("case %d: reuse-distance histograms differ", i)
		}
		if got.MedianStreamLength() != want.MedianStreamLength() ||
			got.GrammarRules() != want.GrammarRules() {
			t.Fatalf("case %d: summary stats differ", i)
		}
	}
}

// TestObserveBeyondWindowAllocatesNothing pins the O(window) memory
// bound: once the analysis window is full, further Observe calls take no
// record and are free — the producer can keep streaming an arbitrarily
// long trace without growing the analyzer. Finish then refuses any window
// but the records Observe took.
func TestObserveBeyondWindowAllocatesNothing(t *testing.T) {
	an := NewAnalyzer()
	an.Begin(2, Options{MaxMisses: 500})
	window := make([]trace.Miss, 500)
	for i := range window {
		window[i] = trace.Miss{Addr: uint64(i%37) << 6, CPU: uint8(i % 2)}
		if n := an.Observe(window[i : i+1]); n != 1 {
			t.Fatalf("Observe took %d of record %d inside the window, want 1", n, i)
		}
	}
	ms := []trace.Miss{{Addr: 99 << 6, CPU: 1}}
	if n := testing.AllocsPerRun(200, func() {
		if an.Observe(ms) != 0 {
			t.Fatal("Observe took a record beyond the window")
		}
	}); n != 0 {
		t.Errorf("Observe beyond the window allocated %v objects/op, want 0", n)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Finish accepted a window one record longer than Observe took")
			}
		}()
		an.Finish(append(window, ms...))
	}()
	a := an.Finish(window)
	if len(a.Misses) != 500 || &a.Misses[0] != &window[0] || cap(a.Misses) != 500 {
		t.Errorf("window holds %d misses in capacity %d, want the caller's 500 records in place", len(a.Misses), cap(a.Misses))
	}
}

func TestInstancesCoverStreamMisses(t *testing.T) {
	// Property: total instance length equals the number of in-stream
	// misses (top-level instances partition stream-covered positions).
	rng := rand.New(rand.NewSource(17))
	var blocks []uint64
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 {
			blocks = append(blocks, uint64(rng.Intn(40)))
		} else {
			blocks = append(blocks, uint64(100000+i))
		}
	}
	a := Analyze(mkTrace(blocks...), Options{})
	totalInst := 0
	for _, inst := range a.Instances {
		totalInst += inst.Len
	}
	inStream := 0
	for i := range a.State {
		if a.InStreams(i) {
			inStream++
		}
	}
	if totalInst != inStream {
		t.Errorf("instance coverage %d != stream misses %d", totalInst, inStream)
	}
}
