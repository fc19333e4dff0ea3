package sequitur

import (
	"math/rand"
	"reflect"
	"testing"
)

// grammarFingerprint captures everything observable about a grammar so the
// equivalence tests can assert that two construction paths produced
// literally the same result (same rule ids, same bodies, same derivation).
func grammarFingerprint(t *testing.T, g *Grammar) (string, map[int]int) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	return g.String(), g.RuleLengths()
}

// deBruijn returns the binary de Bruijn sequence B(2, n) as uint64 symbols,
// an adversarial input containing every n-bit substring exactly once:
// maximal digram churn with no long repetitions.
func deBruijn(n int) []uint64 {
	var seq []uint64
	seen := make(map[uint64]bool)
	var db func(t, p int, a []int)
	a := make([]int, 2*n+1)
	db = func(t, p int, a []int) {
		if t > n {
			if n%p == 0 {
				for i := 1; i <= p; i++ {
					seq = append(seq, uint64(a[i]))
				}
			}
			return
		}
		a[t] = a[t-p]
		db(t+1, p, a)
		for j := a[t-p] + 1; j < 2; j++ {
			a[t] = j
			db(t+1, t, a)
		}
	}
	db(1, 1, a)
	_ = seen
	return seq
}

func equivalenceInputs(tb testing.TB) map[string][]uint64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	inputs := map[string][]uint64{
		"empty":    {},
		"single":   {99},
		"deBruijn": deBruijn(12),
	}
	// Adversarial runs: aaaa... at several lengths (digram-overlap path).
	run := make([]uint64, 500)
	for i := range run {
		run[i] = 7
	}
	inputs["run"] = run
	// Run-length mixture over a tiny alphabet: random runs of equal
	// symbols are the adversarial class for the expand-junction overlap
	// handling (see regression_test.go).
	var runsMix []uint64
	for len(runsMix) < 5000 {
		sym := rng.Uint64() % 3
		for k := rng.Intn(8) + 1; k > 0; k-- {
			runsMix = append(runsMix, sym)
		}
	}
	inputs["runsMix"] = runsMix
	// Random inputs over narrow and wide alphabets, including full-range
	// uint64 values (exercises terminal interning on large values).
	for _, tc := range []struct {
		name     string
		n        int
		alphabet uint64 // 0 = full-range random uint64
	}{
		{"narrow", 4000, 4},
		{"medium", 6000, 64},
		{"wide", 3000, 0},
		{"blocks", 5000, 512},
	} {
		in := make([]uint64, tc.n)
		for i := range in {
			if tc.alphabet == 0 {
				in[i] = rng.Uint64()
			} else {
				in[i] = rng.Uint64() % tc.alphabet
			}
		}
		inputs[tc.name] = in
	}
	return inputs
}

// TestParseAppendResetEquivalence is the storage-reuse property test:
// building a grammar via Parse, via incremental Append on a fresh grammar,
// and via Append on a Reset grammar previously used for a different input
// must produce identical grammars.
func TestParseAppendResetEquivalence(t *testing.T) {
	// The reused grammar is deliberately poisoned with unrelated inputs
	// between cases; Reset must erase every trace of them.
	reused := New()
	poison := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 1, 4, 1, 5}
	for name, in := range equivalenceInputs(t) {
		t.Run(name, func(t *testing.T) {
			parsed := Parse(in)
			wantStr, wantLens := grammarFingerprint(t, parsed)

			incr := New()
			for _, v := range in {
				incr.Append(v)
			}
			gotStr, gotLens := grammarFingerprint(t, incr)
			if gotStr != wantStr {
				t.Errorf("incremental grammar differs from Parse:\n--- Parse\n%s--- Append\n%s", wantStr, gotStr)
			}
			if !reflect.DeepEqual(gotLens, wantLens) {
				t.Errorf("incremental rule lengths = %v, want %v", gotLens, wantLens)
			}

			for _, v := range poison {
				reused.Append(v)
			}
			reused.Reset()
			for _, v := range in {
				reused.Append(v)
			}
			gotStr, gotLens = grammarFingerprint(t, reused)
			if gotStr != wantStr {
				t.Errorf("reset-reused grammar differs from Parse:\n--- Parse\n%s--- Reset+Append\n%s", wantStr, gotStr)
			}
			if !reflect.DeepEqual(gotLens, wantLens) {
				t.Errorf("reset-reused rule lengths = %v, want %v", gotLens, wantLens)
			}
			if got := reused.Expansion(); !reflect.DeepEqual(got, in) && len(in) > 0 {
				t.Errorf("reset-reused expansion mismatch (%d symbols)", len(in))
			}
			if reused.Len() != len(in) || reused.RuleCount() != parsed.RuleCount() {
				t.Errorf("Len/RuleCount = %d/%d, want %d/%d",
					reused.Len(), reused.RuleCount(), len(in), parsed.RuleCount())
			}
		})
	}
}

// TestSteadyStateAppendAllocs is the zero-allocation guard for the append
// hot path: once a grammar has been grown over an input, Reset+replay of
// the same input must not allocate at all.
func TestSteadyStateAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(23))
	in := make([]uint64, 30000)
	for i := range in {
		// Mix of repetitive structure and noise, like a miss trace.
		if i%3 == 0 {
			in[i] = uint64(i % 97)
		} else {
			in[i] = rng.Uint64() % 4096
		}
	}
	g := New()
	for _, v := range in {
		g.Append(v)
	}
	avg := testing.AllocsPerRun(3, func() {
		g.Reset()
		for _, v := range in {
			g.Append(v)
		}
	})
	if avg > 0.5 {
		t.Errorf("steady-state Reset+Append allocated %.1f times per run, want ~0", avg)
	}
}

// TestWalkReuseAllocs guards the derivation side: repeated walks over one
// grammar must reuse the grammar-owned scratch buffers.
func TestWalkReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	in := make([]uint64, 10000)
	for i := range in {
		in[i] = uint64(i % 61)
	}
	g := Parse(in)
	v := &countingVisitor{}
	g.Walk(v) // grow scratch once
	avg := testing.AllocsPerRun(3, func() { g.Walk(v) })
	if avg > 0.5 {
		t.Errorf("steady-state Walk allocated %.1f times per run, want ~0", avg)
	}
}

type countingVisitor struct{ rules, terms int }

func (c *countingVisitor) EnterRule(ruleID, occurrence, pos, length, depth int) { c.rules++ }
func (c *countingVisitor) Terminal(pos int, v uint64, depth int)                { c.terms++ }
func (c *countingVisitor) ExitRule(ruleID, pos, length, depth int)              {}

// TestDigramTable exercises the open-addressed table directly through
// churn that forces tombstone accumulation, purging, and growth.
func TestDigramTable(t *testing.T) {
	var tab digramTable
	tab.init()
	ref := make(map[uint64]int32)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		key := rng.Uint64() % 512 // small key space -> heavy delete/reinsert churn
		switch rng.Intn(3) {
		case 0:
			val := int32(rng.Intn(1 << 20))
			tab.set(key, val)
			ref[key] = val
		case 1:
			tab.del(key)
			delete(ref, key)
		default:
			got, ok := tab.get(key)
			want, wok := ref[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("step %d: get(%d) = %d,%v want %d,%v", i, key, got, ok, want, wok)
			}
		}
	}
	if tab.live != len(ref) {
		t.Fatalf("live count %d, want %d", tab.live, len(ref))
	}
	count := 0
	tab.forEach(func(key uint64, val int32) {
		if ref[key] != val {
			t.Errorf("forEach: key %d = %d, want %d", key, val, ref[key])
		}
		count++
	})
	if count != len(ref) {
		t.Fatalf("forEach visited %d entries, want %d", count, len(ref))
	}
}

// TestTermTable checks the terminal interning table against a map: ids are
// dense in first-sight order, stable across growth, and restart at 0 after
// reset.
func TestTermTable(t *testing.T) {
	var tab termTable
	tab.init()
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 2; round++ {
		ref := make(map[uint64]uint32)
		for i := 0; i < 100000; i++ {
			v := uint64(rng.Intn(20000)) << 6 // block-aligned, like miss addresses
			next := uint32(len(ref))
			want, seen := ref[v]
			if !seen {
				want = next
				ref[v] = want
			}
			got, added := tab.intern(v, next)
			if got != want || added == seen {
				t.Fatalf("round %d step %d: intern(%#x) = %d,%v want %d,%v", round, i, v, got, added, want, !seen)
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("round %d: live %d, want %d", round, tab.live, len(ref))
		}
		tab.reset()
	}
}
