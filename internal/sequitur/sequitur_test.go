package sequitur

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func buildAndCheck(t *testing.T, input []uint64) *Grammar {
	t.Helper()
	g := Parse(input)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated for input %v: %v", input, err)
	}
	if got := g.Expansion(); !reflect.DeepEqual(got, input) && !(len(got) == 0 && len(input) == 0) {
		t.Fatalf("expansion mismatch: got %v want %v", got, input)
	}
	return g
}

func TestEmptyAndSingle(t *testing.T) {
	g := buildAndCheck(t, []uint64{})
	if g.Len() != 0 {
		t.Errorf("Len() = %d, want 0", g.Len())
	}
	g = buildAndCheck(t, []uint64{42})
	if g.Len() != 1 || g.RuleCount() != 0 {
		t.Errorf("single symbol: Len=%d rules=%d", g.Len(), g.RuleCount())
	}
}

func TestClassicAbcdbc(t *testing.T) {
	// The canonical example from Nevill-Manning & Witten: "abcdbc" yields
	// one rule for "bc".
	g := buildAndCheck(t, []uint64{'a', 'b', 'c', 'd', 'b', 'c'})
	if g.RuleCount() != 1 {
		t.Fatalf("RuleCount = %d, want 1\n%s", g.RuleCount(), g)
	}
	lengths := ruleLengths(g)
	for id, l := range lengths {
		if id != 0 && l != 2 {
			t.Errorf("rule R%d length = %d, want 2", id, l)
		}
	}
}

func TestNestedHierarchy(t *testing.T) {
	// "abcabdabcabd" should produce a hierarchy: a rule for "ab...", and a
	// higher rule covering "abcabd".
	in := []uint64{'a', 'b', 'c', 'a', 'b', 'd', 'a', 'b', 'c', 'a', 'b', 'd'}
	g := buildAndCheck(t, in)
	if g.RuleCount() < 2 {
		t.Fatalf("expected nested rules, got %d:\n%s", g.RuleCount(), g)
	}
	lengths := ruleLengths(g)
	if lengths[0] != len(in) {
		t.Errorf("root length = %d, want %d", lengths[0], len(in))
	}
	// Some rule must cover half the input (the repeated "abcabd").
	found := false
	for id, l := range lengths {
		if id != 0 && l == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("no rule of length 6 found: %v\n%s", lengths, g)
	}
}

func TestOverlappingRuns(t *testing.T) {
	// Runs of identical symbols exercise the digram-overlap exception.
	for n := 2; n <= 20; n++ {
		in := make([]uint64, n)
		for i := range in {
			in[i] = 7
		}
		buildAndCheck(t, in)
	}
}

func TestRuleUtilityInlining(t *testing.T) {
	// "abab ab c abc" style inputs force rules to be created and then
	// subsumed, exercising expand().
	inputs := [][]uint64{
		{1, 2, 1, 2, 1, 2},
		{1, 2, 3, 1, 2, 3, 1, 2, 3},
		{1, 2, 1, 2, 3, 1, 2, 1, 2, 3},
		{1, 1, 2, 1, 1, 2, 1, 1, 2},
		{1, 2, 3, 4, 1, 2, 3, 4, 2, 3},
	}
	for _, in := range inputs {
		buildAndCheck(t, in)
	}
}

func TestRepeatedWholeSequence(t *testing.T) {
	// A long sequence repeated k times should compress into rules whose
	// total expansion still matches, and the fraction of the input covered
	// by rules should be nearly 1.
	base := []uint64{10, 11, 12, 13, 14, 15, 16, 17}
	var in []uint64
	for i := 0; i < 8; i++ {
		in = append(in, base...)
	}
	g := buildAndCheck(t, in)
	if g.RuleCount() == 0 {
		t.Fatal("expected rules for repeated sequence")
	}
}

func TestQuickRandomSmallAlphabet(t *testing.T) {
	// Property: for any input over a small alphabet, the grammar
	// reconstructs the input and maintains its invariants. Small alphabets
	// maximize rule churn (creation + inlining).
	f := func(raw []byte) bool {
		in := make([]uint64, len(raw))
		for i, b := range raw {
			in[i] = uint64(b % 4)
		}
		g := Parse(in)
		if err := g.CheckInvariants(); err != nil {
			t.Logf("invariants: %v (input %v)", err, in)
			return false
		}
		got := g.Expansion()
		if len(got) == 0 && len(in) == 0 {
			return true
		}
		return reflect.DeepEqual(got, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRandomWideAlphabet(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]uint64, len(raw))
		for i, b := range raw {
			in[i] = uint64(b % 64)
		}
		g := Parse(in)
		if err := g.CheckInvariants(); err != nil {
			return false
		}
		return reflect.DeepEqual(g.Expansion(), in) || len(in) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLongRandomStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 5000 + trial*3000
		alphabet := uint64(3 + trial*5)
		in := make([]uint64, n)
		for i := range in {
			in[i] = rng.Uint64() % alphabet
		}
		buildAndCheck(t, in)
	}
}

func TestWalkPositionsAndOccurrences(t *testing.T) {
	in := []uint64{'a', 'b', 'c', 'a', 'b', 'c', 'x', 'a', 'b', 'c'}
	g := buildAndCheck(t, in)

	var positions []int
	var terms []uint64
	occSeen := make(map[int][]int)
	v := &visitorFuncs{
		enter: func(ruleID, occurrence, pos, length, depth int) {
			occSeen[ruleID] = append(occSeen[ruleID], occurrence)
			if length < 2 {
				t.Errorf("rule R%d instance length %d < 2", ruleID, length)
			}
		},
		term: func(pos int, val uint64, depth int) {
			positions = append(positions, pos)
			terms = append(terms, val)
		},
	}
	walkReference(g, v)

	if !reflect.DeepEqual(terms, in) {
		t.Errorf("walk terminals = %v, want %v", terms, in)
	}
	for i, p := range positions {
		if p != i {
			t.Fatalf("positions not sequential: %v", positions)
		}
	}
	// Every rule's occurrences must be 1..k in order.
	for id, occs := range occSeen {
		for i, o := range occs {
			if o != i+1 {
				t.Errorf("rule R%d occurrence sequence %v", id, occs)
				break
			}
		}
		if len(occs) < 2 {
			t.Errorf("rule R%d appears %d time(s) in derivation, want >= 2", id, len(occs))
		}
	}
}

func TestRuleLengthsConsistentWithWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]uint64, 2000)
	for i := range in {
		in[i] = rng.Uint64() % 8
	}
	g := buildAndCheck(t, in)
	lengths := ruleLengths(g)

	counted := make(map[int]int)
	v := &visitorFuncs{
		enter: func(ruleID, occurrence, pos, length, depth int) {
			if lengths[ruleID] != length {
				t.Errorf("rule R%d: walk length %d != RuleLengths %d", ruleID, length, lengths[ruleID])
			}
			counted[ruleID]++
		},
		term: func(int, uint64, int) {},
	}
	walkReference(g, v)
}

// visitorFuncs adapts closures to derivationVisitor.
type visitorFuncs struct {
	enter func(ruleID, occurrence, pos, length, depth int)
	term  func(pos int, v uint64, depth int)
	exit  func(ruleID, pos, length, depth int)
}

func (v *visitorFuncs) EnterRule(ruleID, occurrence, pos, length, depth int) {
	if v.enter != nil {
		v.enter(ruleID, occurrence, pos, length, depth)
	}
}
func (v *visitorFuncs) Terminal(pos int, val uint64, depth int) {
	if v.term != nil {
		v.term(pos, val, depth)
	}
}
func (v *visitorFuncs) ExitRule(ruleID, pos, length, depth int) {
	if v.exit != nil {
		v.exit(ruleID, pos, length, depth)
	}
}

func BenchmarkAppendRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := make([]uint64, b.N)
	for i := range in {
		in[i] = rng.Uint64() % 1024
	}
	b.ResetTimer()
	g := New()
	for i := 0; i < b.N; i++ {
		g.Append(in[i])
	}
}

func BenchmarkAppendRepetitive(b *testing.B) {
	base := make([]uint64, 64)
	for i := range base {
		base[i] = uint64(i)
	}
	b.ResetTimer()
	g := New()
	for i := 0; i < b.N; i++ {
		g.Append(base[i%len(base)])
	}
}
