package sequitur

import (
	"testing"

	"repro/internal/sequitur/streamtest"
)

// TestExpandJunctionOverlapRegression pins the rule-inlining fix: when
// expand() splices an inlined rule body, the junction digram may be the
// second, overlapping copy of a run of equal symbols. The original pointer
// implementation unconditionally re-pointed the digram index at the
// junction, stranding the run's first copy and eventually violating digram
// uniqueness (future repetitions went undetected). This input, found by
// testing/quick, walks exactly that path: a run of four 1s compresses into
// nested rules whose inlining creates a "1 1 1" body.
func TestExpandJunctionOverlapRegression(t *testing.T) {
	in := streamtest.Mod4(streamtest.JunctionOverlapInput)
	g := New()
	for i, v := range in {
		g.Append(v)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("after symbol %d: %v\n%s", i, err, g)
		}
	}
	got := g.Expansion()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("expansion diverges at %d", i)
		}
	}
}
