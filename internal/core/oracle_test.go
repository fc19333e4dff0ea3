package core

import (
	"math/rand"
	"testing"

	"repro/internal/sequitur/streamtest"
	"repro/internal/trace"
)

// TestStreamMembershipOracle holds Analyze's per-miss stream states to
// the brute-force oracle, which reads only the input and never the
// grammar: every miss Analyze puts in a stream must lie in a repeated
// digram of the input, and every recurring one in a digram that occurred
// before. Inputs: the expand-junction regression input, runs of equal
// symbols, and 400 random small-alphabet inputs.
func TestStreamMembershipOracle(t *testing.T) {
	check := func(what string, syms []uint64) {
		t.Helper()
		tr := &trace.Trace{CPUs: 2}
		addrs := make([]uint64, len(syms))
		for i, v := range syms {
			addrs[i] = v << 6
			tr.Append(trace.Miss{Addr: addrs[i], CPU: uint8(i % 2)})
		}
		if err := streamtest.Check(addrs, Analyze(tr, Options{}).State); err != nil {
			t.Fatalf("%s: %v (input %v)", what, err, syms)
		}
	}
	check("junction overlap", streamtest.Mod4(streamtest.JunctionOverlapInput))
	for n := 1; n <= 40; n++ {
		run := make([]uint64, n)
		for i := range run {
			run[i] = 7
		}
		check("run", run)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		in := make([]uint64, rng.Intn(300))
		alphabet := uint64(2 + rng.Intn(4))
		for i := range in {
			in[i] = rng.Uint64() % alphabet
		}
		check("random", in)
	}
}
