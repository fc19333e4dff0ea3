package sequitur

import (
	"fmt"
	"strings"
)

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

// Instance is one rule instance in the derivation of the input: rule
// Rule's expansion covers input positions [Pos, Pos+Len).
type Instance struct {
	Rule, Pos, Len int32
}

// Derive walks the derivation of the input left to right and appends to
// top every rule instance directly under the root, in input order, and
// to repeats every maximal later occurrence: each rule instance that is
// not its rule's first occurrence in input order and lies inside no
// other such instance, in input order. Input positions covered by no top
// instance hang directly off the root; positions inside a repeat lie in
// a second or later occurrence of some rule; the rest lie only inside
// first occurrences.
//
// The walk descends only into each rule's first occurrence. A rule
// instance inside a later occurrence of rule Y also lies, earlier, inside
// Y's first occurrence, so every rule's first occurrence sits on a chain
// of first occurrences from the root and nothing is missed. Each rule
// body is therefore read once, and the walk costs O(grammar), not
// O(input); rule lengths come out of the same walk, since a later
// occurrence always follows its rule's completed first one. Its scratch
// lives in a grammar-owned buffer reused across calls.
func (g *Grammar) Derive(top, repeats []Instance) ([]Instance, []Instance) {
	n := len(g.rules)
	if cap(g.lenBuf) < n {
		g.lenBuf = make([]int32, n)
	}
	g.lenBuf = g.lenBuf[:n]
	clear(g.lenBuf) // 0: rule not reached yet (every rule expands to >= 2)
	g.descend(0, 0, &top, &repeats)
	return top, repeats
}

// descend walks the first occurrence of rule id, which starts at input
// position pos: it appends the later occurrences directly inside it to
// repeats, descends into the first ones, and, when top is non-nil,
// appends every rule instance directly inside it to top. It records and
// returns the rule's expansion length.
func (g *Grammar) descend(id, pos int32, top, repeats *[]Instance) int32 {
	start := pos
	for s := g.first(id); !g.isGuard(s); s = g.nodes[s].next {
		sym := g.nodes[s].sym
		if sym&kindMask != kindRule {
			pos++
			continue
		}
		c := int32(sym >> kindBits)
		l := g.lenBuf[c]
		if l == 0 {
			l = g.descend(c, pos, nil, repeats)
		} else {
			*repeats = append(*repeats, Instance{Rule: c, Pos: pos, Len: l})
		}
		if top != nil {
			*top = append(*top, Instance{Rule: c, Pos: pos, Len: l})
		}
		pos += l
	}
	g.lenBuf[id] = pos - start
	return pos - start
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
			d := digramKey(g.nodes, n)
			if prev, dup := seen[d]; dup {
				if g.nodes[prev].next != n {
					return fmt.Errorf("digram uniqueness violated: %#x occurs at least twice", d)
				}
				continue
			}
			seen[d] = n
			if v, ok := g.index.get(g.nodes, d); !ok {
				return fmt.Errorf("digram %#x at node %d missing from index", d, n)
			} else if v != n {
				return fmt.Errorf("digram %#x indexed at node %d, want first copy %d", d, v, n)
			}
		}
	}
	// Index consistency: every entry points at a node that is still linked
	// into a live rule body and records the entry's slot, carries the
	// fingerprint of that node's current digram, and is reachable from its
	// home slot (no empty slot lies between them). The table holds one
	// entry per distinct digram, so none is left over.
	tab := &g.index
	mask := uint32(len(tab.slots) - 1)
	entries := 0
	for i, s := range tab.slots {
		if s.node == 0 {
			continue
		}
		entries++
		n := s.node - 1
		if g.nodes[n].next < 0 || g.isGuard(n) || g.isGuard(g.nodes[n].next) {
			return fmt.Errorf("index entry in slot %d points at guard/unlinked node %d", i, n)
		}
		if d := digramKey(g.nodes, n); fingerprint(d) != s.fp {
			return fmt.Errorf("index entry in slot %d has fingerprint %#x, but its node %d spells %#x, fingerprint %#x", i, s.fp, n, d, fingerprint(d))
		}
		if g.nodes[n].slot != uint32(i)+1 {
			return fmt.Errorf("index entry in slot %d: node %d records slot %d", i, n, int64(g.nodes[n].slot)-1)
		}
		for h := tab.home(s.fp); h != uint32(i); h = (h + 1) & mask {
			if tab.slots[h].node == 0 {
				return fmt.Errorf("index entry in slot %d is cut off from its home slot %d by empty slot %d", i, tab.home(s.fp), h)
			}
		}
	}
	if entries != tab.live || entries != len(seen) {
		return fmt.Errorf("index holds %d entries (live count %d), grammar has %d distinct digrams", entries, tab.live, len(seen))
	}
	// Back-pointers: every linked node that records a slot is that slot's
	// node, and no free node records one.
	for id := range g.rules {
		guard := g.rules[id].guard
		if guard < 0 {
			continue
		}
		for n := guard; ; n = g.nodes[n].next {
			if slot := g.nodes[n].slot; slot != 0 {
				if int(slot) > len(tab.slots) || tab.slots[slot-1].node != n+1 {
					return fmt.Errorf("node %d of R%d records slot %d, which does not index it", n, id, slot-1)
				}
			}
			if g.nodes[n].next == guard {
				break
			}
		}
	}
	for n := g.free; n >= 0; n = g.nodes[n].next {
		if g.nodes[n].slot != 0 {
			return fmt.Errorf("free node %d records slot %d", n, g.nodes[n].slot-1)
		}
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
