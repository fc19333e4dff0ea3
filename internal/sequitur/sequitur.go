// Package sequitur implements the SEQUITUR hierarchical compression
// algorithm of Nevill-Manning & Witten (JAIR 1997), the analysis engine the
// paper uses to identify temporal streams: SEQUITUR infers a context-free
// grammar whose production rules correspond exactly to the distinct
// repeated subsequences (streams) of its input.
//
// The implementation follows the canonical linear-time design: symbols live
// in doubly-linked lists (one per rule, with a circular guard node), and a
// digram index maps each adjacent symbol pair to its single occurrence.
// Two invariants are maintained as each input symbol is appended:
//
//	digram uniqueness: no pair of adjacent symbols appears more than once
//	  in the grammar (overlapping pairs such as "aaa" excepted);
//	rule utility: every rule other than the root is referenced at least
//	  twice.
//
// Input symbols are arbitrary uint64 values (the analyses feed in
// block-aligned miss addresses).
//
// # Storage
//
// The grammar is allocation-free on the steady-state append path. Nodes
// live in a growable slab indexed by int32, with a free list recycling
// slots as digram substitution unlinks them; no per-symbol heap object is
// ever created. Terminal values are interned to dense 30-bit ids on first
// sight, through a flat open-addressed table of their own, so every symbol
// — terminal, rule reference, or guard — packs into a single tagged uint32
// and a digram becomes one uint64 key in a second flat open-addressed
// table. Reset rewinds the grammar for reuse, keeping the slab, the
// interning table, and the digram index's storage.
//
// The digram table stores no keys: each 8-byte slot holds a 32-bit
// fingerprint of its digram beside the node where the digram starts, and a
// lookup reads the key from that node only when the fingerprint matches.
// Each indexed node also records which digram-table slot indexes it, so
// dropping a node's digram from the index reads the node instead of
// hashing and probing the table.
package sequitur

import "math/bits"

// Symbols are tagged uint32s: the low kindBits carry the node kind, the
// rest the dense terminal id, referenced rule id, or (for guards) the
// owning rule id.
const (
	kindTerm  = 0 // payload: dense terminal id (index into Grammar.terms)
	kindRule  = 1 // payload: referenced rule id
	kindGuard = 2 // payload: owning rule id
	kindBits  = 2
	kindMask  = 1<<kindBits - 1

	maxID = 1<<30 - 1 // ids must fit in 30 bits next to the kind tag

	nilNode = int32(-1)
)

// node is one symbol occurrence in a rule body: a terminal, a reference to
// another rule, or a rule's guard sentinel. Nodes are index-linked into the
// grammar's slab; a free node's next field threads the free list. slot is
// the digram-table slot that indexes the digram starting here, plus one;
// 0 means the digram is not indexed at this node.
type node struct {
	prev, next int32
	sym        uint32
	slot       uint32
}

// ruleMeta is one production rule. The guard node's next/prev delimit the
// body; guard < 0 marks a dead (inlined) rule.
type ruleMeta struct {
	guard int32
	uses  int32 // number of reference nodes pointing at this rule
}

// Grammar incrementally builds a SEQUITUR grammar. The zero value is not
// usable; call New.
type Grammar struct {
	nodes  []node
	free   int32 // head of the recycled-node free list, nilNode if empty
	rules  []ruleMeta
	live   int      // live rules (root included)
	terms  []uint64 // dense terminal id -> original value
	intern termTable
	index  digramTable
	length int

	// Derive scratch (rule expansion lengths), reused across calls.
	lenBuf []int32
}

// New returns an empty grammar.
func New() *Grammar {
	g := &Grammar{free: nilNode}
	g.intern.init()
	g.index.init()
	g.newRule() // root, id 0
	return g
}

// Parse builds a grammar over the whole input.
func Parse(input []uint64) *Grammar {
	g := New()
	for _, v := range input {
		g.Append(v)
	}
	return g
}

// Reset rewinds the grammar to empty while retaining all of its storage
// (node slab, terminal interning table, digram index), so one grammar can
// be reused across many inputs without re-allocating.
func (g *Grammar) Reset() {
	g.nodes = g.nodes[:0]
	g.rules = g.rules[:0]
	g.terms = g.terms[:0]
	g.intern.reset()
	g.index.reset()
	g.free = nilNode
	g.live = 0
	g.length = 0
	g.newRule()
}

// Len returns the number of terminals appended so far.
func (g *Grammar) Len() int { return g.length }

// RuleCount returns the number of live rules, excluding the root.
func (g *Grammar) RuleCount() int { return g.live - 1 }

// RuleIDBound returns an exclusive upper bound on every rule id the grammar
// has issued (dead ones included), so callers can size rule-id-indexed
// slices.
func (g *Grammar) RuleIDBound() int { return len(g.rules) }

func (g *Grammar) isGuard(i int32) bool { return g.nodes[i].sym&kindMask == kindGuard }

// ruleOf returns the rule id carried by a rule-reference or guard node.
func (g *Grammar) ruleOf(i int32) int32 { return int32(g.nodes[i].sym >> kindBits) }

func (g *Grammar) first(r int32) int32 { return g.nodes[g.rules[r].guard].next }
func (g *Grammar) last(r int32) int32  { return g.nodes[g.rules[r].guard].prev }

// digramKey packs the digram starting at s into one uint64. Both symbols
// are tagged uint32s, so the key is exact: no two distinct digrams share a
// key. s and s.next must be non-guard body nodes.
func digramKey(nodes []node, s int32) uint64 {
	return uint64(nodes[s].sym)<<32 | uint64(nodes[nodes[s].next].sym)
}

func (g *Grammar) newNode(sym uint32) int32 {
	if g.free >= 0 {
		i := g.free
		g.free = g.nodes[i].next
		g.nodes[i] = node{prev: nilNode, next: nilNode, sym: sym}
		return i
	}
	g.nodes = append(g.nodes, node{prev: nilNode, next: nilNode, sym: sym})
	return int32(len(g.nodes) - 1)
}

func (g *Grammar) freeNode(i int32) {
	g.nodes[i].next = g.free
	g.nodes[i].prev = nilNode
	g.free = i
}

func (g *Grammar) newRule() int32 {
	id := int32(len(g.rules))
	if id > maxID {
		panic("sequitur: rule id space exhausted")
	}
	guard := g.newNode(uint32(id)<<kindBits | kindGuard)
	g.nodes[guard].prev = guard
	g.nodes[guard].next = guard
	g.rules = append(g.rules, ruleMeta{guard: guard})
	g.live++
	return id
}

// Append extends the input by one terminal symbol, restoring both grammar
// invariants. Steady-state appends (terminal already interned, storage
// already grown) perform no heap allocation.
func (g *Grammar) Append(v uint64) {
	id, added := g.intern.intern(v, uint32(len(g.terms)))
	if added {
		if len(g.terms) > maxID {
			panic("sequitur: terminal id space exhausted")
		}
		g.terms = append(g.terms, v)
	}
	// Link the new terminal after the root's last node. Neither node
	// starts an indexed digram, as the root's guard follows each of them,
	// so insertAfter's two joins would have no entry to drop.
	n := g.newNode(id<<kindBits | kindTerm)
	guard := g.rules[0].guard
	l := g.nodes[guard].prev
	g.nodes[n].prev, g.nodes[n].next = l, guard
	g.nodes[l].next = n
	g.nodes[guard].prev = n
	g.length++
	g.check(l)
}

// deleteDigram removes the index entry for the digram starting at s, if the
// index currently points at s: the node records that entry's slot, so no
// lookup is needed. Runs of equal symbols ("aaa") hold several
// overlapping copies of one digram but only the first is indexed; when that
// first copy disappears, the index is re-pointed at the surviving
// overlapping copy so that later repetitions are still detected. The
// third node is loaded only when the second repeats the first's symbol.
// An indexed digram's second node is linked, so the third exists; it may
// be a guard, but a guard's symbol never equals a body symbol, so no
// guard test is needed.
func (g *Grammar) deleteDigram(s int32) {
	slot := g.nodes[s].slot
	if slot == 0 {
		return
	}
	i := slot - 1
	sym := g.nodes[s].sym
	if sn := g.nodes[s].next; g.nodes[sn].sym == sym && g.nodes[g.nodes[sn].next].sym == sym {
		g.index.put(g.nodes, i, sn)
	} else {
		g.index.remove(g.nodes, i)
	}
}

// join links left -> right, first dropping any index entry for the digram
// that previously started at left.
func (g *Grammar) join(left, right int32) {
	g.deleteDigram(left)
	g.nodes[left].next = right
	g.nodes[right].prev = left
}

// insertAfter places y immediately after x.
func (g *Grammar) insertAfter(x, y int32) {
	g.join(y, g.nodes[x].next)
	g.join(x, y)
}

// unlink removes s from its list, cleaning up the digram index and rule
// reference counts. The slot is not recycled; callers free it once they are
// done reading the node.
func (g *Grammar) unlink(s int32) {
	g.join(g.nodes[s].prev, g.nodes[s].next)
	if !g.isGuard(s) {
		g.deleteDigram(s)
		if g.nodes[s].sym&kindMask == kindRule {
			g.rules[g.ruleOf(s)].uses--
		}
	}
}

// check tests the digram starting at s against the index, forming or
// reusing a rule when a repetition is found. Reports whether the digram
// duplicated an existing one.
func (g *Grammar) check(s int32) bool {
	if g.isGuard(s) || g.isGuard(g.nodes[s].next) {
		return false
	}
	key := digramKey(g.nodes, s)
	i, ok := g.index.find(g.nodes, key)
	if !ok {
		g.index.insert(g.nodes, i, key, s)
		return false
	}
	if m := g.index.at(i); g.nodes[m].next != s { // overlapping occurrences (e.g. "aaa") are left alone
		g.match(s, m)
	}
	return true
}

// match handles a repeated digram at s and m (m earlier in the grammar).
func (g *Grammar) match(s, m int32) {
	var r int32
	mp := g.nodes[m].prev
	mnn := g.nodes[g.nodes[m].next].next
	if g.isGuard(mp) && g.isGuard(mnn) {
		// The earlier occurrence is exactly an existing rule body: reuse it.
		r = g.ruleOf(mp)
		g.substitute(s, r)
	} else {
		// Create a new rule for the digram.
		r = g.newRule()
		g.insertAfter(g.last(r), g.copySym(s))
		g.insertAfter(g.last(r), g.copySym(g.nodes[s].next))
		g.substitute(m, r)
		g.substitute(s, r)
		g.index.set(g.nodes, digramKey(g.nodes, g.first(r)), g.first(r))
	}
	// Rule utility: if the rule's first symbol references a rule that is now
	// used only once, inline that rule.
	f := g.first(r)
	if g.nodes[f].sym&kindMask == kindRule && g.rules[g.ruleOf(f)].uses == 1 {
		g.expand(f)
	}
}

// copySym duplicates a symbol node (for building a new rule body).
func (g *Grammar) copySym(s int32) int32 {
	sym := g.nodes[s].sym
	if sym&kindMask == kindRule {
		g.rules[sym>>kindBits].uses++
	}
	return g.newNode(sym)
}

// substitute replaces s and s.next with a reference to r, then re-checks
// the digrams adjacent to the new reference.
func (g *Grammar) substitute(s, r int32) {
	q := g.nodes[s].prev
	sn := g.nodes[s].next
	g.unlink(sn)
	g.unlink(s)
	g.freeNode(sn)
	g.freeNode(s)
	ref := g.newNode(uint32(r)<<kindBits | kindRule)
	g.rules[r].uses++
	g.insertAfter(q, ref)
	if !g.check(q) {
		g.check(ref)
	}
}

// expand inlines the rule referenced by ref (which must be that rule's only
// remaining reference) in place of ref. ref is always the first symbol of a
// rule body, so its predecessor is a guard and no left-side digram exists.
func (g *Grammar) expand(ref int32) {
	left, right := g.nodes[ref].prev, g.nodes[ref].next
	inner := g.ruleOf(ref)
	guard := g.rules[inner].guard
	f, l := g.nodes[guard].next, g.nodes[guard].prev
	g.rules[inner].guard = -1 // dead
	g.rules[inner].uses = 0
	g.live--
	g.deleteDigram(ref)
	g.join(left, f)
	g.join(l, right)
	if !g.isGuard(l) && !g.isGuard(right) {
		// Index the junction digram (l, right) — unless it is the second,
		// overlapping copy of a run of equal symbols whose first copy is the
		// indexed predecessor (…m l right… with sym(m) == sym(l) ==
		// sym(right)). Overwriting the entry in that case would strand the
		// first copy and silently break digram uniqueness later (a bug
		// present in the original pointer implementation).
		key := digramKey(g.nodes, l)
		if i, ok := g.index.find(g.nodes, key); !ok {
			g.index.insert(g.nodes, i, key, l)
		} else if g.nodes[g.index.at(i)].next != l {
			g.index.put(g.nodes, i, l)
		}
	}
	g.freeNode(ref)
	g.freeNode(guard)
}

// digramTable is a flat open-addressed hash table from packed digram keys
// to node indices: linear probing over one slot array, and backward-shift
// deletion, so no tombstones accumulate and every lookup stops at the
// first empty slot. find returns the slot's index, so each index
// operation of the grammar — look up then insert, look up then re-point —
// is one probe sequence. The table stays at most half full, which keeps
// probe runs, and so the shifts a deletion makes, short. It allocates
// only when it grows.
//
// A slot holds no key, only the key's fingerprint: the top 32 bits of its
// Fibonacci hash, whose top bits are the key's home slot. A probe compares
// fingerprints and reads the key from the slot's node only when they
// match. That read is exact because an entry never outlives its node's
// digram: symbols never change, and an entry is dropped or re-pointed
// before its node's next changes. join calls deleteDigram first, and the
// one link change outside join, Append's, is to the root's last node,
// which the root's guard follows, so it starts no indexed digram.
// Deletion and growth read home slots from the fingerprints, with no
// multiply and no node read.
//
// The table keeps each indexed node's slot field exact: every operation
// that places, moves or drops an entry takes the grammar's node slab and
// records the entry's new slot in its node (0 once it is dropped). So a
// node can be removed from the index by its slot alone, with no probe.
type digramTable struct {
	slots []digramSlot
	live  int
	shift uint32 // 32 - log2(len(slots)): a fingerprint's home slot is fp >> shift
}

// digramSlot is one 8-byte table entry: the key's fingerprint and the
// node index plus one, 0 marking an empty slot (every fingerprint value
// is a valid one, so it cannot carry the mark).
type digramSlot struct {
	fp   uint32
	node int32
}

const tabMin = 64

// fingerprint returns the top 32 bits of key's Fibonacci hash. Fibonacci
// hashing on the high bits gives good spread for low-entropy keys:
// packed digrams, and block-aligned terminal addresses.
func fingerprint(key uint64) uint32 { return uint32((key * 0x9E3779B97F4A7C15) >> 32) }

func (t *digramTable) init() {
	t.slots = make([]digramSlot, tabMin)
	t.shift = 32 - uint32(bits.TrailingZeros(tabMin))
	t.live = 0
}

// reset empties the table without shrinking its storage.
func (t *digramTable) reset() {
	clear(t.slots)
	t.live = 0
}

// fibSlot maps key to a slot of a power-of-two table of size slots: the
// top bits of key's Fibonacci hash, as in fingerprint.
func fibSlot(key uint64, size int) uint32 {
	return uint32((key * 0x9E3779B97F4A7C15) >> (64 - uint(bits.TrailingZeros(uint(size)))))
}

// home returns the first slot of fp's probe sequence.
func (t *digramTable) home(fp uint32) uint32 { return fp >> t.shift }

// find returns the index of the slot holding key, or of the empty slot
// where key would be inserted, and whether key is present. nodes is the
// slab the entries point into; a slot's key is read from it only when
// the slot's fingerprint matches key's.
func (t *digramTable) find(nodes []node, key uint64) (uint32, bool) {
	fp := fingerprint(key)
	mask := uint32(len(t.slots) - 1)
	for i := t.home(fp); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.node == 0 {
			return i, false
		}
		if s.fp == fp && digramKey(nodes, s.node-1) == key {
			return i, true
		}
	}
}

// vacancy returns the first empty slot of fp's probe sequence.
func (t *digramTable) vacancy(fp uint32) uint32 {
	mask := uint32(len(t.slots) - 1)
	i := t.home(fp)
	for t.slots[i].node != 0 {
		i = (i + 1) & mask
	}
	return i
}

// at returns the node held by the occupied slot i.
func (t *digramTable) at(i uint32) int32 { return t.slots[i].node - 1 }

// put re-points the occupied slot i at node, which must spell the same
// digram as the node it replaces, so the fingerprint stands.
func (t *digramTable) put(nodes []node, i uint32, node int32) {
	nodes[t.slots[i].node-1].slot = 0
	t.slots[i].node = node + 1
	nodes[node].slot = i + 1
}

// set indexes key under node, inserting or re-pointing its entry. node
// must already spell key.
func (t *digramTable) set(nodes []node, key uint64, node int32) {
	if i, ok := t.find(nodes, key); ok {
		t.put(nodes, i, node)
	} else {
		t.insert(nodes, i, key, node)
	}
}

// get returns the node indexed under key.
func (t *digramTable) get(nodes []node, key uint64) (int32, bool) {
	i, ok := t.find(nodes, key)
	return t.slots[i].node - 1, ok
}

// insert fills the empty slot i, which find returned for key, with node.
// Above half load the table first doubles, and key's slot is found again.
func (t *digramTable) insert(nodes []node, i uint32, key uint64, node int32) {
	fp := fingerprint(key)
	if 2*(t.live+1) > len(t.slots) {
		t.grow(nodes)
		i = t.vacancy(fp)
	}
	t.slots[i] = digramSlot{fp: fp, node: node + 1}
	nodes[node].slot = i + 1
	t.live++
}

// remove empties the occupied slot i by backward shift: each later entry
// of the probe run that may legally sit in the hole moves into it, and
// the run's last hole becomes empty, so lookups never need tombstones.
func (t *digramTable) remove(nodes []node, i uint32) {
	nodes[t.slots[i].node-1].slot = 0
	mask := uint32(len(t.slots) - 1)
	hole := i
	for j := (hole + 1) & mask; t.slots[j].node != 0; j = (j + 1) & mask {
		// The entry at j probes from its home slot h up to j; it may move
		// back into the hole only if the hole lies on that path.
		h := t.home(t.slots[j].fp)
		if (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			nodes[t.slots[hole].node-1].slot = hole + 1
			hole = j
		}
	}
	t.slots[hole] = digramSlot{}
	t.live--
}

// grow rehashes into a table of twice the size.
func (t *digramTable) grow(nodes []node) {
	old := t.slots
	t.slots = make([]digramSlot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.node == 0 {
			continue
		}
		i := t.vacancy(s.fp)
		t.slots[i] = s
		nodes[s.node-1].slot = i + 1
	}
}

// termTable interns terminal values to dense ids: a flat open-addressed
// table with linear probing, like digramTable, but insert-only (ids live
// until Reset), so it needs no deletion. Each slot holds the value
// beside its id, so a lookup reads one host cache line per probe.
type termTable struct {
	slots []termSlot
	live  int
}

// termSlot is one table entry; id is the dense id plus one, 0 marking an
// empty slot.
type termSlot struct {
	key uint64
	id  uint32
}

func (t *termTable) init() {
	t.slots = make([]termSlot, tabMin)
	t.live = 0
}

// reset empties the table without shrinking its storage.
func (t *termTable) reset() {
	clear(t.slots)
	t.live = 0
}

// intern returns v's id. A value not yet in the table is given id next,
// and added reports that it was.
func (t *termTable) intern(v uint64, next uint32) (id uint32, added bool) {
	if 4*(t.live+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := fibSlot(v, len(t.slots)); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			s.key, s.id = v, next+1
			t.live++
			return next, true
		}
		if s.key == v {
			return s.id - 1, false
		}
	}
}

// grow rehashes into a table of twice the size.
func (t *termTable) grow() {
	old := t.slots
	t.slots = make([]termSlot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		for i := fibSlot(s.key, len(t.slots)); ; i = (i + 1) & mask {
			if t.slots[i].id == 0 {
				t.slots[i] = s
				break
			}
		}
	}
}
