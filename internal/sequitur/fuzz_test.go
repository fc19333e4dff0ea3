package sequitur

import (
	"slices"
	"testing"
)

// maxFuzzSymbols bounds a fuzz input: the incremental check re-verifies
// the whole grammar after every symbol, so its cost is quadratic.
const maxFuzzSymbols = 1024

// FuzzSequitur checks the grammar engine on arbitrary symbol sequences.
// Fuzz bytes map onto a four-symbol alphabet, so repeats, runs of equal
// symbols and rule inlining occur constantly. Parse over the whole input
// and an incremental Append, checked after every symbol, must both keep
// every grammar invariant and expand back to exactly the input.
func FuzzSequitur(f *testing.F) {
	f.Add(junctionOverlapInput)
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 0, 1, 2})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > maxFuzzSymbols {
			raw = raw[:maxFuzzSymbols]
		}
		in := make([]uint64, len(raw))
		for i, b := range raw {
			in[i] = uint64(b % 4)
		}
		check := func(what string, g *Grammar, want []uint64) {
			t.Helper()
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v\ninput %v\n%s", what, err, in, g)
			}
			if got := g.Expansion(); !slices.Equal(got, want) {
				t.Fatalf("%s: expansion %v, want %v", what, got, want)
			}
		}
		check("Parse", Parse(in), in)
		g := New()
		for i, v := range in {
			g.Append(v)
			check("Append", g, in[:i+1])
		}
	})
}
