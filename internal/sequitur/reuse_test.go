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
	return g.String(), ruleLengths(g)
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

// TestWalkReuseAllocs guards the derivation side: repeated Derive walks
// over one grammar must reuse the grammar-owned scratch and the caller's
// instance buffers.
func TestWalkReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	in := make([]uint64, 10000)
	for i := range in {
		in[i] = uint64(i % 61)
	}
	g := Parse(in)
	top, repeats := g.Derive(nil, nil) // grow scratch once
	avg := testing.AllocsPerRun(3, func() { top, repeats = g.Derive(top[:0], repeats[:0]) })
	if avg > 0.5 {
		t.Errorf("steady-state Derive allocated %.1f times per run, want ~0", avg)
	}
}

// del removes key's entry, if any, in one probe sequence.
func (t *digramTable) del(key uint64) {
	if i, ok := t.find(key); ok {
		t.remove(i)
	}
}

// checkDigramTable compares the table with ref: the live count, every
// entry's node, forEach's coverage, and the linear-probing invariant that
// makes backward-shift deletion safe — no empty slot between an entry's
// home slot and the slot it sits in.
func checkDigramTable(t *testing.T, tab *digramTable, ref map[uint64]int32) {
	t.Helper()
	if tab.live != len(ref) {
		t.Fatalf("live count %d, want %d", tab.live, len(ref))
	}
	for key, want := range ref {
		if got, ok := tab.get(key); !ok || got != want {
			t.Fatalf("get(%#x) = %d,%v want %d,true", key, got, ok, want)
		}
	}
	count := 0
	tab.forEach(func(key uint64, node int32) {
		if want, ok := ref[key]; !ok || want != node {
			t.Errorf("forEach: key %#x = %d, want %d,%v", key, node, want, ok)
		}
		count++
	})
	if count != len(ref) {
		t.Fatalf("forEach visited %d entries, want %d", count, len(ref))
	}
	mask := uint32(len(tab.slots) - 1)
	for j, s := range tab.slots {
		if s.node == 0 {
			continue
		}
		for i := fibSlot(s.key(), len(tab.slots)); i != uint32(j); i = (i + 1) & mask {
			if tab.slots[i].node == 0 {
				t.Fatalf("key %#x in slot %d is cut off from its home slot by empty slot %d", s.key(), j, i)
			}
		}
	}
}

// keysHomedAt returns n distinct keys whose home slot in a table of size
// slots is home.
func keysHomedAt(home uint32, size, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if fibSlot(k, size) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDigramTable checks the tombstone-free table against a map:
// deletion chains that wrap past the last slot, reinsertion after
// backward shifts, random churn, reset, and growth.
func TestDigramTable(t *testing.T) {
	var tab digramTable
	tab.init()
	size := len(tab.slots)
	ref := make(map[uint64]int32)

	// A probe run that wraps: keys homed at the last slot spill into slots
	// 0, 1, 2, and keys homed at slot 0 queue behind them.
	last := keysHomedAt(uint32(size-1), size, 4)
	first := keysHomedAt(0, size, 3)
	chain := append(append([]uint64{}, last...), first...)
	for i, k := range chain {
		tab.set(k, int32(i))
		ref[k] = int32(i)
	}
	checkDigramTable(t, &tab, ref)
	if tab.slots[size-1].key() != last[0] || tab.slots[3].key() != first[0] {
		t.Fatalf("wrapped run not laid out as expected")
	}
	// Delete from the front of the run, one key at a time: every later
	// key shifts back across the wrap, and stays findable.
	for i, k := range chain {
		tab.del(k)
		delete(ref, k)
		checkDigramTable(t, &tab, ref)
		// Reinsert every other deleted key: it lands behind the shifted
		// entries, and the run stays intact.
		if i%2 == 0 {
			tab.set(k, int32(100+i))
			ref[k] = int32(100 + i)
			checkDigramTable(t, &tab, ref)
		}
	}
	// Re-pointing an entry keeps its slot.
	for k := range ref {
		i, _ := tab.find(k)
		tab.set(k, 7)
		ref[k] = 7
		if j, _ := tab.find(k); j != i {
			t.Fatalf("re-pointing %#x moved it from slot %d to %d", k, i, j)
		}
	}
	checkDigramTable(t, &tab, ref)

	// Random churn over a small key space: long runs form and dissolve.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		key := rng.Uint64() % 512
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
		if i%10000 == 0 {
			checkDigramTable(t, &tab, ref)
		}
	}
	checkDigramTable(t, &tab, ref)

	// Reset empties the table and keeps its storage.
	grown := len(tab.slots)
	tab.reset()
	clear(ref)
	checkDigramTable(t, &tab, ref)
	if len(tab.slots) != grown {
		t.Fatalf("reset resized the table from %d to %d slots", grown, len(tab.slots))
	}

	// Growth: the table doubles exactly when an insert would pass half
	// load, and every entry survives the rehash.
	for i := 0; i < 5*grown; i++ {
		key := rng.Uint64()
		before := len(tab.slots)
		tab.set(key, int32(i))
		ref[key] = int32(i)
		want := before
		if 2*len(ref) > before {
			want = 2 * before
		}
		if len(tab.slots) != want {
			t.Fatalf("insert %d: %d slots, want %d (live %d)", i, len(tab.slots), want, len(ref))
		}
	}
	checkDigramTable(t, &tab, ref)
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
