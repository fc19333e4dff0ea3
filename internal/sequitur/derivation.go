package sequitur

import (
	"fmt"
	"strings"
)

// ruleLengths fills g.lenBuf with the expansion length (in terminals) of
// every rule id (dead rules get 0) and returns it. The buffer is reused
// across calls.
func (g *Grammar) ruleLengths() []int32 {
	n := len(g.rules)
	if cap(g.lenBuf) < n {
		g.lenBuf = make([]int32, n)
	}
	g.lenBuf = g.lenBuf[:n]
	for i := range g.lenBuf {
		g.lenBuf[i] = 0 // 0 = unknown or dead
	}
	var lengthOf func(r int32) int32
	lengthOf = func(r int32) int32 {
		if l := g.lenBuf[r]; l != 0 {
			if l < 0 {
				panic("sequitur: cyclic grammar")
			}
			return l
		}
		// Mark in-progress to catch (impossible) cycles deterministically.
		g.lenBuf[r] = -1
		total := int32(0)
		for n := g.first(r); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				total += lengthOf(g.ruleOf(n))
			} else {
				total++
			}
		}
		g.lenBuf[r] = total
		return total
	}
	for id := range g.rules {
		if g.rules[id].guard >= 0 {
			lengthOf(int32(id))
		}
	}
	return g.lenBuf
}

// RuleLengths returns the expansion length (in terminals) of every live
// rule, keyed by rule id. The root's length equals the input length.
func (g *Grammar) RuleLengths() map[int]int {
	lengths := g.ruleLengths()
	out := make(map[int]int, g.live)
	for id := range g.rules {
		if g.rules[id].guard >= 0 {
			out[id] = int(lengths[id])
		}
	}
	return out
}

// Expansion reconstructs the original input from the grammar.
func (g *Grammar) Expansion() []uint64 {
	out := make([]uint64, 0, g.length)
	var expand func(r int32)
	expand = func(r int32) {
		for n := g.first(r); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				expand(g.ruleOf(n))
			} else {
				out = append(out, g.terms[g.nodes[n].sym>>kindBits])
			}
		}
	}
	expand(0)
	return out
}

// DerivationVisitor receives events from Walk's left-to-right traversal of
// the parse tree. Positions are 0-based indices into the original input.
//
// EnterRule fires once per rule *instance* in the derivation: occurrence is
// 1 for the instance whose expansion appears first in the input, 2 for the
// next, and so on; depth is the nesting level (1 for children of the root).
// Terminal fires once per input position, with depth the number of
// enclosing non-root rule instances (0 for terminals hanging directly off
// the root, which are by construction not part of any repetition).
type DerivationVisitor interface {
	EnterRule(ruleID, occurrence, pos, length, depth int)
	Terminal(pos int, v uint64, depth int)
	ExitRule(ruleID, pos, length, depth int)
}

// Walk traverses the full derivation of the input. The parse tree has at
// most one internal node per input symbol, so the walk is O(input length).
// Walk's internal state (rule lengths, occurrence counters) lives in
// grammar-owned buffers reused across calls.
func (g *Grammar) Walk(v DerivationVisitor) {
	lengths := g.ruleLengths()
	if cap(g.occBuf) < len(g.rules) {
		g.occBuf = make([]int32, len(g.rules))
	}
	g.occBuf = g.occBuf[:len(g.rules)]
	for i := range g.occBuf {
		g.occBuf[i] = 0
	}
	pos := 0
	var walk func(r int32, depth int)
	walk = func(r int32, depth int) {
		for n := g.first(r); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				id := g.ruleOf(n)
				g.occBuf[id]++
				l := int(lengths[id])
				v.EnterRule(int(id), int(g.occBuf[id]), pos, l, depth+1)
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

// String renders the grammar for debugging, one rule per line.
func (g *Grammar) String() string {
	var b strings.Builder
	for id := range g.rules {
		if g.rules[id].guard < 0 {
			continue
		}
		fmt.Fprintf(&b, "R%d ->", id)
		for n := g.first(int32(id)); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				fmt.Fprintf(&b, " R%d", g.ruleOf(n))
			} else {
				fmt.Fprintf(&b, " %d", g.terms[g.nodes[n].sym>>kindBits])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckInvariants verifies the grammar's structural invariants and the
// digram index's consistency. It returns a descriptive error when a check
// fails; tests and the fuzzing harness call it after every build.
func (g *Grammar) CheckInvariants() error {
	liveCount := 0
	for id := range g.rules {
		if g.rules[id].guard >= 0 {
			liveCount++
		}
	}
	if liveCount != g.live {
		return fmt.Errorf("live rule count mismatch: recorded %d, actual %d", g.live, liveCount)
	}
	// Rule utility: every non-root rule is referenced at least twice, and
	// the recorded use counts match reality.
	refCounts := make([]int32, len(g.rules))
	for id := range g.rules {
		if g.rules[id].guard < 0 {
			continue
		}
		for n := g.first(int32(id)); !g.isGuard(n); n = g.nodes[n].next {
			if g.nodes[n].sym&kindMask == kindRule {
				rid := g.ruleOf(n)
				refCounts[rid]++
				if g.rules[rid].guard < 0 {
					return fmt.Errorf("rule R%d references dead rule R%d", id, rid)
				}
			}
		}
	}
	for id := range g.rules {
		if g.rules[id].guard < 0 || id == 0 {
			continue
		}
		if refCounts[id] < 2 {
			return fmt.Errorf("rule utility violated: R%d used %d time(s)", id, refCounts[id])
		}
		if refCounts[id] != g.rules[id].uses {
			return fmt.Errorf("use count mismatch for R%d: recorded %d, actual %d", id, g.rules[id].uses, refCounts[id])
		}
	}
	// Digram uniqueness: no adjacent pair occurs twice, except overlapping
	// occurrences of the same symbol (e.g. the middle of "aaa"). The first
	// copy of each digram must also be present in the index — a lost entry
	// means future repetitions of that digram go undetected.
	seen := make(map[uint64]int32)
	for id := range g.rules {
		if g.rules[id].guard < 0 {
			continue
		}
		for n := g.first(int32(id)); !g.isGuard(n) && !g.isGuard(g.nodes[n].next); n = g.nodes[n].next {
			d := g.digramKey(n)
			if prev, dup := seen[d]; dup {
				if g.nodes[prev].next != n {
					return fmt.Errorf("digram uniqueness violated: %#x occurs at least twice", d)
				}
				continue
			}
			seen[d] = n
			if v, ok := g.index.get(d); !ok {
				return fmt.Errorf("digram %#x at node %d missing from index", d, n)
			} else if v != n {
				return fmt.Errorf("digram %#x indexed at node %d, want first copy %d", d, v, n)
			}
		}
	}
	// Index consistency: every index entry points at a node whose digram
	// matches its key and which is still linked into a live rule body.
	var indexErr error
	g.index.forEach(func(key uint64, n int32) {
		if indexErr != nil {
			return
		}
		if g.nodes[n].next < 0 || g.isGuard(n) || g.isGuard(g.nodes[n].next) {
			indexErr = fmt.Errorf("index entry %#x points at guard/unlinked node", key)
			return
		}
		if g.digramKey(n) != key {
			indexErr = fmt.Errorf("index entry %#x points at node with digram %#x", key, g.digramKey(n))
		}
	})
	if indexErr != nil {
		return indexErr
	}
	// Every rule body holds at least two symbols.
	for id := range g.rules {
		if g.rules[id].guard < 0 || id == 0 {
			continue
		}
		n := 0
		for s := g.first(int32(id)); !g.isGuard(s); s = g.nodes[s].next {
			n++
		}
		if n < 2 {
			return fmt.Errorf("rule R%d has body of length %d", id, n)
		}
	}
	return nil
}
