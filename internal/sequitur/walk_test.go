package sequitur

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sequitur/streamtest"
)

// The reference derivation walk: a per-terminal parse-tree traversal
// that visits every rule instance and every input position. It is
// O(input), with three visitor calls per record, but obviously right, so
// the tests check Derive against it.

// derivationVisitor receives events from walkReference's left-to-right
// traversal of the parse tree. Positions are 0-based indices into the
// original input.
//
// EnterRule fires once per rule *instance* in the derivation: occurrence
// is 1 for the instance whose expansion appears first in the input, 2 for
// the next, and so on; depth is the nesting level (1 for children of the
// root). Terminal fires once per input position, with depth the number of
// enclosing non-root rule instances (0 for terminals hanging directly off
// the root, which are by construction not part of any repetition).
type derivationVisitor interface {
	EnterRule(ruleID, occurrence, pos, length, depth int)
	Terminal(pos int, v uint64, depth int)
	ExitRule(ruleID, pos, length, depth int)
}

// refRuleLengths returns the expansion length (in terminals) of every rule
// id (dead rules get 0), computed by recursion over the rule bodies.
func refRuleLengths(g *Grammar) []int32 {
	lengths := make([]int32, len(g.rules)) // 0 = unknown or dead
	var lengthOf func(r int32) int32
	lengthOf = func(r int32) int32 {
		if l := lengths[r]; l != 0 {
			if l < 0 {
				panic("sequitur: cyclic grammar")
			}
			return l
		}
		// Mark in-progress to catch (impossible) cycles deterministically.
		lengths[r] = -1
		total := int32(0)
		for n := g.first(r); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				total += lengthOf(g.ruleOf(n))
			} else {
				total++
			}
		}
		lengths[r] = total
		return total
	}
	for id := range g.rules {
		if g.rules[id].guard >= 0 {
			lengthOf(int32(id))
		}
	}
	return lengths
}

// ruleLengths returns the expansion length of every live rule, keyed by
// rule id. The root's length equals the input length.
func ruleLengths(g *Grammar) map[int]int {
	lengths := refRuleLengths(g)
	out := make(map[int]int, g.live)
	for id := range g.rules {
		if g.rules[id].guard >= 0 {
			out[id] = int(lengths[id])
		}
	}
	return out
}

// walkReference traverses the full derivation of the input.
func walkReference(g *Grammar, v derivationVisitor) {
	lengths := refRuleLengths(g)
	occ := make([]int32, len(g.rules))
	pos := 0
	var walk func(r int32, depth int)
	walk = func(r int32, depth int) {
		for n := g.first(r); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				id := g.ruleOf(n)
				occ[id]++
				l := int(lengths[id])
				v.EnterRule(int(id), int(occ[id]), pos, l, depth+1)
				walk(id, depth+1)
				v.ExitRule(int(id), pos, l, depth+1)
			} else {
				v.Terminal(pos, g.terms[g.nodes[n].sym>>kindBits], depth)
				pos++
			}
		}
	}
	walk(0, 0)
}

// Per-position classes of the derivation, as the stream analyses name
// them: hanging off the root, inside first occurrences only, or inside
// some later occurrence (numbered as streamtest numbers them).
const (
	posRoot  = streamtest.NonRepetitive
	posFirst = streamtest.NewStream
	posLater = streamtest.Recurring
)

// refDerivation is what the reference walk says Derive must report.
type refDerivation struct {
	classes []int      // per input position
	top     []Instance // instances directly under the root
	topOcc  []int      // each top instance's number among its rule's top instances
	firsts  []bool     // whether each top instance is its rule's first occurrence
	repeats []Instance // later occurrences inside no other later occurrence
}

// refDerive runs the reference walk, tracking how many enclosing
// instances are later occurrences.
func refDerive(g *Grammar) refDerivation {
	var r refDerivation
	topCount := map[int]int{}
	var laterDepth int
	var laterStack []bool
	walkReference(g, &visitorFuncs{
		enter: func(ruleID, occurrence, pos, length, depth int) {
			inst := Instance{Rule: int32(ruleID), Pos: int32(pos), Len: int32(length)}
			if depth == 1 {
				topCount[ruleID]++
				r.top = append(r.top, inst)
				r.topOcc = append(r.topOcc, topCount[ruleID])
				r.firsts = append(r.firsts, occurrence == 1)
			}
			later := occurrence >= 2
			if later && laterDepth == 0 {
				r.repeats = append(r.repeats, inst)
			}
			laterStack = append(laterStack, later)
			if later {
				laterDepth++
			}
		},
		term: func(pos int, _ uint64, depth int) {
			switch {
			case depth == 0:
				r.classes = append(r.classes, posRoot)
			case laterDepth > 0:
				r.classes = append(r.classes, posLater)
			default:
				r.classes = append(r.classes, posFirst)
			}
		},
		exit: func(ruleID, pos, length, depth int) {
			n := len(laterStack) - 1
			if laterStack[n] {
				laterDepth--
			}
			laterStack = laterStack[:n]
		},
	})
	return r
}

// checkDerive compares Derive on g against the reference walk: the top
// instances, their per-rule numbering and first-occurrence flags, the
// maximal later occurrences, and the per-position classes the two imply;
// and it holds those classes to the input itself with the brute-force
// stream oracle.
func checkDerive(t testing.TB, g *Grammar, input []uint64) {
	t.Helper()
	want := refDerive(g)
	top, repeats := g.Derive(nil, nil)
	if !slices.Equal(top, want.top) {
		t.Fatalf("top instances %v, want %v (input %v)\n%s", top, want.top, input, g)
	}
	if !slices.Equal(repeats, want.repeats) {
		t.Fatalf("repeats %v, want %v (input %v)\n%s", repeats, want.repeats, input, g)
	}
	counts := map[int32]int{}
	for i, in := range top {
		counts[in.Rule]++
		if counts[in.Rule] != want.topOcc[i] {
			t.Fatalf("top instance %d numbered %d, want %d", i, counts[in.Rule], want.topOcc[i])
		}
		// A top instance is a first occurrence exactly when it is not a
		// repeat; a repeat at the top is reported at its own position.
		first := !slices.Contains(repeats, in)
		if first != want.firsts[i] {
			t.Fatalf("top instance %d (%v): first occurrence %v, want %v", i, in, first, want.firsts[i])
		}
	}
	classes := classesOf(top, repeats, len(input))
	if len(input) > 0 && !reflect.DeepEqual(classes, want.classes) {
		t.Fatalf("position classes %v, want %v (input %v)", classes, want.classes, input)
	}
	if err := streamtest.Check(input, classes); err != nil {
		t.Fatalf("stream oracle: %v (input %v)\n%s", err, input, g)
	}
}

// classesOf marks the positions Derive's instances cover, as the stream
// analysis does: inside a top instance posFirst, inside a repeat
// posLater, elsewhere posRoot.
func classesOf(top, repeats []Instance, n int) []int {
	classes := make([]int, n)
	for _, in := range top {
		for p := in.Pos; p < in.Pos+in.Len; p++ {
			classes[p] = posFirst
		}
	}
	for _, in := range repeats {
		for p := in.Pos; p < in.Pos+in.Len; p++ {
			classes[p] = posLater
		}
	}
	return classes
}

// TestDeriveMatchesReference property-tests Derive against the reference
// walk on random small-alphabet inputs (maximal rule churn and nesting),
// runs of equal symbols (the digram-overlap path), and the expand-junction
// regression input.
func TestDeriveMatchesReference(t *testing.T) {
	in := streamtest.Mod4(streamtest.JunctionOverlapInput)
	checkDerive(t, Parse(in), in)
	for n := 1; n <= 40; n++ {
		run := make([]uint64, n)
		for i := range run {
			run[i] = 7
		}
		checkDerive(t, Parse(run), run)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		alphabet := uint64(2 + rng.Intn(4))
		in := make([]uint64, n)
		for i := range in {
			in[i] = rng.Uint64() % alphabet
		}
		checkDerive(t, Parse(in), in)
	}
	for name, in := range equivalenceInputs(t) {
		t.Run(name, func(t *testing.T) { checkDerive(t, Parse(in), in) })
	}
}
