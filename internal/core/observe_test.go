package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// runSplit drives ms into a fresh analysis as Observe chunks cut at the
// given boundaries (splits are record indices; consecutive equal indices
// produce empty chunks, which must be no-ops), keeps the records each
// call takes, and returns the analysis Finish makes of them.
func runSplit(cpus int, opts Options, ms []trace.Miss, splits []int) *Analysis {
	an := NewAnalyzer()
	an.Begin(cpus, opts)
	var window []trace.Miss
	prev := 0
	for _, s := range append(splits, len(ms)) {
		window = append(window, ms[prev:prev+an.Observe(ms[prev:s])]...)
		prev = s
	}
	return an.Finish(window)
}

// checkAnalysisEqual compares every externally-observable field of two
// analyses of the same stream.
func checkAnalysisEqual(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Misses, want.Misses) {
		t.Errorf("%s: windows differ (%d vs %d misses)", label, len(got.Misses), len(want.Misses))
	}
	if !reflect.DeepEqual(got.Strided, want.Strided) {
		t.Errorf("%s: stride flags differ", label)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Errorf("%s: stream states differ", label)
	}
	if !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Errorf("%s: instances differ", label)
	}
	if !reflect.DeepEqual(got.ReuseDist.Buckets(), want.ReuseDist.Buckets()) {
		t.Errorf("%s: reuse histograms differ", label)
	}
	if got.GrammarRules() != want.GrammarRules() {
		t.Errorf("%s: grammar rules %d vs %d", label, got.GrammarRules(), want.GrammarRules())
	}
}

// TestObserveSplitInvariance is the chunk-boundary property test: an
// analysis must be invariant to how the stream is cut into Observe
// chunks — one-record chunks, one whole-stream chunk, and many random
// splits (including empty chunks and chunks straddling the window cap)
// all produce the same Analysis. This is the property the streaming
// Session, the pipeline's chunking, and the wire decoder's frame batching
// all lean on.
func TestObserveSplitInvariance(t *testing.T) {
	const cpus = 4
	const n = 20000
	ms := sinktest.Misses(n, cpus)

	for _, opts := range []Options{
		{},                                     // default window: the whole stream fits
		{MaxMisses: n / 3},                     // cap mid-stream: chunks straddle it
		{MaxMisses: n / 3, ReuseTruncate: 100}, // and with reuse truncation in play
	} {
		// Reference: one-record chunks.
		records := make([]int, n-1)
		for i := range records {
			records[i] = i + 1
		}
		want := runSplit(cpus, opts, ms, records)

		checkAnalysisEqual(t, "one-chunk", runSplit(cpus, opts, ms, nil), want)

		rng := rand.New(rand.NewSource(0x5eed))
		for round := 0; round < 8; round++ {
			nsplits := rng.Intn(40)
			splits := make([]int, nsplits)
			for i := range splits {
				splits[i] = rng.Intn(n + 1)
			}
			// Sorted boundaries; duplicates yield empty chunks.
			for i := 1; i < len(splits); i++ {
				for j := i; j > 0 && splits[j] < splits[j-1]; j-- {
					splits[j], splits[j-1] = splits[j-1], splits[j]
				}
			}
			checkAnalysisEqual(t, "random-split", runSplit(cpus, opts, ms, splits), want)
		}
	}
}
