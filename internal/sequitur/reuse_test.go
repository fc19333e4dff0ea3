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

// tableRig drives a digramTable the way the grammar does: every entry
// holds a node of its own, drawn from a slab whose slot fields the table
// keeps and whose nodes spell the keys (an entry's node carries the key's
// high word and links to a node carrying its low word), and ref mirrors
// the table as a map.
type tableRig struct {
	tab   digramTable
	nodes []node
	free  []int32 // first nodes of freed pairs
	ref   map[uint64]int32
}

func newTableRig() *tableRig {
	r := &tableRig{ref: make(map[uint64]int32)}
	r.tab.init()
	return r
}

// spell returns a fresh pair of linked nodes spelling key, by its first
// node.
func (r *tableRig) spell(key uint64) int32 {
	var n int32
	if k := len(r.free); k > 0 {
		n = r.free[k-1]
		r.free = r.free[:k-1]
	} else {
		r.nodes = append(r.nodes, node{}, node{})
		n = int32(len(r.nodes) - 2)
	}
	r.nodes[n] = node{prev: nilNode, next: n + 1, sym: uint32(key >> 32)}
	r.nodes[n+1] = node{prev: n, next: nilNode, sym: uint32(key)}
	return n
}

// set indexes key under fresh nodes, inserting or re-pointing its entry,
// and returns the entry's node; a re-pointed entry's old nodes are
// freed.
func (r *tableRig) set(key uint64) int32 {
	n := r.spell(key)
	r.tab.set(r.nodes, key, n)
	if old, ok := r.ref[key]; ok {
		r.free = append(r.free, old)
	}
	r.ref[key] = n
	return n
}

// del removes key's entry, if any, in one probe sequence.
func (r *tableRig) del(key uint64) {
	if i, ok := r.tab.find(r.nodes, key); ok {
		r.tab.remove(r.nodes, i)
		r.free = append(r.free, r.ref[key])
		delete(r.ref, key)
	}
}

// keyAt returns the key spelled by the node of the occupied slot i.
func (r *tableRig) keyAt(i uint32) uint64 { return digramKey(r.nodes, r.tab.at(i)) }

// reset empties the table and the slab.
func (r *tableRig) reset() {
	r.tab.reset()
	r.nodes, r.free = r.nodes[:0], r.free[:0]
	clear(r.ref)
}

// checkDigramTable compares the rig's table with its map: the live count,
// every key's lookup, each entry's node and fingerprint (the fingerprint
// of the key its node spells), the back-pointers (each entry's node
// records the entry's slot, each node recording a slot is that slot's
// node, freed nodes record none), and the linear-probing invariant that
// makes backward-shift deletion safe — no empty slot between an entry's
// home slot and the slot it sits in.
func checkDigramTable(t *testing.T, r *tableRig) {
	t.Helper()
	tab, ref := &r.tab, r.ref
	if tab.live != len(ref) {
		t.Fatalf("live count %d, want %d", tab.live, len(ref))
	}
	for key, want := range ref {
		if got, ok := tab.get(r.nodes, key); !ok || got != want {
			t.Fatalf("get(%#x) = %d,%v want %d,true", key, got, ok, want)
		}
	}
	mask := uint32(len(tab.slots) - 1)
	count := 0
	for j, s := range tab.slots {
		if s.node == 0 {
			continue
		}
		count++
		n, key := s.node-1, r.keyAt(uint32(j))
		if want, ok := ref[key]; !ok || want != n {
			t.Fatalf("slot %d: key %#x at node %d, want %d,%v", j, key, n, want, ok)
		}
		if s.fp != fingerprint(key) {
			t.Fatalf("slot %d: key %#x has fingerprint %#x, slot holds %#x", j, key, fingerprint(key), s.fp)
		}
		if r.nodes[n].slot != uint32(j)+1 {
			t.Fatalf("key %#x in slot %d, its node records slot %d", key, j, int64(r.nodes[n].slot)-1)
		}
		for i := tab.home(s.fp); i != uint32(j); i = (i + 1) & mask {
			if tab.slots[i].node == 0 {
				t.Fatalf("key %#x in slot %d is cut off from its home slot by empty slot %d", key, j, i)
			}
		}
	}
	if count != len(ref) {
		t.Fatalf("table holds %d entries, want %d", count, len(ref))
	}
	for n, nd := range r.nodes {
		if nd.slot != 0 && (int(nd.slot) > len(tab.slots) || tab.slots[nd.slot-1].node != int32(n)+1) {
			t.Fatalf("node %d records slot %d, which does not index it", n, nd.slot-1)
		}
	}
	for _, n := range r.free {
		if r.nodes[n].slot != 0 {
			t.Fatalf("free node %d records slot %d", n, r.nodes[n].slot-1)
		}
	}
}

// keysHomedAt returns n distinct keys whose home slot in tab is home.
func keysHomedAt(tab *digramTable, home uint32, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if tab.home(fingerprint(k)) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDigramTable checks the tombstone-free table and its node
// back-pointers against a map: deletion chains that wrap past the last
// slot, reinsertion after backward shifts, re-pointing, random churn,
// reset, and growth.
func TestDigramTable(t *testing.T) {
	r := newTableRig()
	tab := &r.tab
	size := len(tab.slots)

	// A probe run that wraps: keys homed at the last slot spill into slots
	// 0, 1, 2, and keys homed at slot 0 queue behind them.
	last := keysHomedAt(tab, uint32(size-1), 4)
	first := keysHomedAt(tab, 0, 3)
	chain := append(append([]uint64{}, last...), first...)
	for _, k := range chain {
		r.set(k)
	}
	checkDigramTable(t, r)
	if r.keyAt(uint32(size-1)) != last[0] || r.keyAt(3) != first[0] {
		t.Fatalf("wrapped run not laid out as expected")
	}
	// Delete from the front of the run, one key at a time: every later
	// key shifts back across the wrap, stays findable, and its node
	// follows it.
	for i, k := range chain {
		r.del(k)
		checkDigramTable(t, r)
		// Reinsert every other deleted key: it lands behind the shifted
		// entries, and the run stays intact.
		if i%2 == 0 {
			r.set(k)
			checkDigramTable(t, r)
		}
	}
	// Re-pointing an entry keeps its slot, hands the slot to the new
	// node, and clears the old node's.
	for k, old := range r.ref {
		i, _ := tab.find(r.nodes, k)
		n := r.set(k)
		if j, _ := tab.find(r.nodes, k); j != i {
			t.Fatalf("re-pointing %#x moved it from slot %d to %d", k, i, j)
		}
		if r.nodes[n].slot != i+1 || r.nodes[old].slot != 0 {
			t.Fatalf("re-pointing %#x in slot %d: new node records %d, old node %d", k, i, r.nodes[n].slot, r.nodes[old].slot)
		}
	}
	checkDigramTable(t, r)

	// Random churn over a small key space: long runs form and dissolve.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		key := rng.Uint64() % 512
		switch rng.Intn(3) {
		case 0:
			r.set(key)
		case 1:
			r.del(key)
		default:
			got, ok := tab.get(r.nodes, key)
			want, wok := r.ref[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("step %d: get(%d) = %d,%v want %d,%v", i, key, got, ok, want, wok)
			}
		}
		if i%10000 == 0 {
			checkDigramTable(t, r)
		}
	}
	checkDigramTable(t, r)

	// Reset empties the table and keeps its storage.
	grown := len(tab.slots)
	r.reset()
	checkDigramTable(t, r)
	if len(tab.slots) != grown {
		t.Fatalf("reset resized the table from %d to %d slots", grown, len(tab.slots))
	}

	// Growth: the table doubles exactly when an insert would pass half
	// load, and every entry survives the rehash with its node following
	// it.
	for i := 0; i < 5*grown; i++ {
		key := rng.Uint64()
		before := len(tab.slots)
		r.set(key)
		want := before
		if 2*len(r.ref) > before {
			want = 2 * before
		}
		if len(tab.slots) != want {
			t.Fatalf("insert %d: %d slots, want %d (live %d)", i, len(tab.slots), want, len(r.ref))
		}
	}
	checkDigramTable(t, r)
}

// TestDigramTableFingerprintCollision checks that two keys with one
// fingerprint, and so one home slot, are told apart by the keys their
// nodes spell. With phiInv the inverse of the hash multiplier mod 2^64,
// (key+phiInv)·φ = key·φ + 1, so key+phiInv hashes to key's hash plus
// one: the same top word whenever key's low word is not all ones.
func TestDigramTableFingerprintCollision(t *testing.T) {
	const phi = 0x9E3779B97F4A7C15
	phiInv := uint64(phi) // Newton's iteration: each step doubles the correct low bits
	for range 5 {
		phiInv *= 2 - phi*phiInv
	}
	if phiInv*phi != 1 {
		t.Fatalf("phiInv·φ = %#x, want 1", phiInv*phi)
	}
	a := uint64(0x0000_0005_0000_0009) // a tagged terminal pair
	if uint32(a*phi) == ^uint32(0) {
		t.Fatalf("pick another key: %#x's hash carries into its top word", a)
	}
	b := a + phiInv
	if fingerprint(a) != fingerprint(b) {
		t.Fatalf("fingerprints %#x and %#x differ", fingerprint(a), fingerprint(b))
	}

	r := newTableRig()
	tab := &r.tab
	na := r.set(a)
	if _, ok := tab.get(r.nodes, b); ok {
		t.Fatalf("get(%#x) found the entry of %#x, which shares its fingerprint", b, a)
	}
	nb := r.set(b)
	checkDigramTable(t, r)
	ia, _ := tab.find(r.nodes, a)
	ib, _ := tab.find(r.nodes, b)
	if home := tab.home(fingerprint(a)); ia != home || ib != (home+1)&uint32(len(tab.slots)-1) {
		t.Fatalf("slots %d and %d, want home %d and the next", ia, ib, home)
	}
	if tab.at(ia) != na || tab.at(ib) != nb {
		t.Fatalf("slots hold nodes %d and %d, want %d and %d", tab.at(ia), tab.at(ib), na, nb)
	}
	// Dropping a shifts b back into the home slot; b stays findable and a
	// is gone, though every probe meets b's matching fingerprint.
	r.del(a)
	checkDigramTable(t, r)
	if _, ok := tab.get(r.nodes, a); ok {
		t.Fatalf("get(%#x) found a deleted key through %#x's entry", a, b)
	}
	// Re-inserting a puts it behind b; re-pointing either keeps the other.
	r.set(a)
	r.set(b)
	r.set(a)
	checkDigramTable(t, r)
	r.del(b)
	checkDigramTable(t, r)
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
