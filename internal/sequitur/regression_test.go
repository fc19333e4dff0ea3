package sequitur

import "testing"

// TestExpandJunctionOverlapRegression pins the rule-inlining fix: when
// expand() splices an inlined rule body, the junction digram may be the
// second, overlapping copy of a run of equal symbols. The original pointer
// implementation unconditionally re-pointed the digram index at the
// junction, stranding the run's first copy and eventually violating digram
// uniqueness (future repetitions went undetected). This input, found by
// testing/quick, walks exactly that path: a run of four 1s compresses into
// nested rules whose inlining creates a "1 1 1" body.
func TestExpandJunctionOverlapRegression(t *testing.T) {
	raw := junctionOverlapInput
	g := New()
	for i, b := range raw {
		g.Append(uint64(b % 4))
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("after symbol %d: %v\n%s", i, err, g)
		}
	}
	in := make([]uint64, len(raw))
	for i, b := range raw {
		in[i] = uint64(b % 4)
	}
	got := g.Expansion()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("expansion diverges at %d", i)
		}
	}
}

// junctionOverlapInput is the testing/quick input behind
// TestExpandJunctionOverlapRegression, read modulo 4 (FuzzSequitur's
// alphabet mapping, which seeds its corpus with it).
var junctionOverlapInput = []byte{
	0x9d, 0x6c, 0xe3, 0x43, 0x8a, 0x79, 0x03, 0x36, 0x5e, 0x67, 0x0f,
	0xd5, 0x9b, 0xe5, 0x7d, 0xfd, 0xf9, 0x4a, 0xcc, 0x22, 0x39, 0x0f,
	0xff, 0xa2, 0x98, 0x5c, 0x7f, 0x2c, 0x15, 0x71, 0x51, 0xfa, 0x75,
	0x66, 0x5a, 0x4a, 0x88, 0xe9, 0xe1, 0xb9, 0x83, 0x80, 0x8f,
}
