package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways of 64-byte blocks.
	return New(Config{Bytes: 512, Ways: 2, BlockBits: 6})
}

func TestConfigSets(t *testing.T) {
	c := Config{Bytes: 8 << 20, Ways: 16, BlockBits: 6}
	if c.Sets() != 8192 {
		t.Errorf("Sets = %d, want 8192", c.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count did not panic")
		}
	}()
	New(Config{Bytes: 3 * 64, Ways: 1, BlockBits: 6})
}

func TestInsertLookupInvalidate(t *testing.T) {
	c := small()
	if _, ok := c.Probe(5); ok {
		t.Fatal("empty cache claims a hit")
	}
	_, ev, _ := c.Fill(5, Shared)
	if ev {
		t.Fatal("fill into empty cache evicted")
	}
	i, ok := c.Probe(5)
	if !ok || c.State(i) != Shared || c.Block(i) != 5 {
		t.Fatalf("probe after fill: i=%d ok=%v", i, ok)
	}
	st, ok := c.Invalidate(5)
	if !ok || st != Shared {
		t.Fatalf("invalidate: %v %v", st, ok)
	}
	if _, ok := c.Probe(5); ok {
		t.Fatal("hit after invalidate")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := small()
	// Blocks 0, 4, 8 map to set 0 (4 sets). Fill both ways, touch 0, fill
	// 8: 4 must be the victim.
	c.Fill(0, Shared)
	c.Fill(4, Shared)
	if i, ok := c.Probe(0); ok {
		c.Touch(i)
	} else {
		t.Fatal("block 0 missing")
	}
	v, ev, _ := c.Fill(8, Shared)
	if !ev || v.Block != 4 {
		t.Fatalf("victim = %+v (evicted=%v), want block 4", v, ev)
	}
	if !c.Contains(0) || !c.Contains(8) || c.Contains(4) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyVictimStateReported(t *testing.T) {
	c := small()
	c.Fill(0, Modified)
	c.Fill(4, Shared)
	c.Touch(mustProbe(t, c, 4))
	// Next fill in set 0 evicts LRU = block 0 (Modified).
	v, ev, _ := c.Fill(8, Shared)
	if !ev || v.Block != 0 || v.State != Modified {
		t.Fatalf("victim = %+v", v)
	}
}

func TestStateDirty(t *testing.T) {
	if Invalid.Dirty() || Shared.Dirty() {
		t.Error("I/S must be clean")
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Error("O/M must be dirty")
	}
}

func mustProbe(t *testing.T, c *Cache, b uint64) int {
	t.Helper()
	i, ok := c.Probe(b)
	if !ok {
		t.Fatalf("block %d not resident", b)
	}
	return i
}

// TestQuickOccupancyBounded: under any access pattern, occupancy never
// exceeds capacity and Probe never returns a block that was not the most
// recent fill/invalidate outcome.
func TestQuickOccupancyBounded(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Bytes: 1024, Ways: 4, BlockBits: 6})
		resident := map[uint64]bool{}
		for _, op := range ops {
			b := uint64(op % 97)
			switch op % 3 {
			case 0:
				if !c.Contains(b) {
					_, _, _ = c.Fill(b, Shared)
					// Recompute residency from scratch below.
				}
			case 1:
				c.Invalidate(b)
			case 2:
				c.Probe(b)
			}
			if c.Occupancy() > 16 {
				return false
			}
		}
		_ = resident
		// Cross-check Contains against Probe for every possible block.
		for b := uint64(0); b < 97; b++ {
			_, ok := c.Probe(b)
			if ok != c.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMissRateSmallVsLargeWorkingSet: a working set that fits never misses
// after warmup; one that exceeds capacity keeps missing (sanity for the
// replacement machinery the whole study rests on).
func TestMissRateWorkingSets(t *testing.T) {
	c := New(Config{Bytes: 64 * 64, Ways: 4, BlockBits: 6}) // 64 blocks
	touch := func(blocks int, rounds int) (misses int) {
		for r := 0; r < rounds; r++ {
			for b := 0; b < blocks; b++ {
				if i, ok := c.Probe(uint64(b)); ok {
					c.Touch(i)
				} else {
					misses++
					c.Fill(uint64(b), Shared)
				}
			}
		}
		return
	}
	if m := touch(32, 4); m != 32 {
		t.Errorf("fitting set: %d misses, want 32 (cold only)", m)
	}
	c = New(Config{Bytes: 64 * 64, Ways: 4, BlockBits: 6})
	if m := touch(128, 4); m != 512 {
		// Sequential sweep over 2x capacity with LRU: every access misses.
		t.Errorf("thrashing set: %d misses, want 512", m)
	}
}

// refLine is one valid line in the reference model.
type refLine struct {
	block uint64
	state State
}

// refSet is a naive reference model of one set: valid lines in MRU->LRU
// order, capped at the way count. Invalid ways are implicit (capacity
// minus len), which matches the packed cache because victim selection
// only consults LRU order when no invalid way exists.
type refSet struct {
	lines []refLine
	ways  int
}

func (r *refSet) find(b uint64) int {
	for i, l := range r.lines {
		if l.block == b {
			return i
		}
	}
	return -1
}

func (r *refSet) touch(i int) {
	l := r.lines[i]
	copy(r.lines[1:i+1], r.lines[:i])
	r.lines[0] = l
}

func (r *refSet) insert(b uint64, s State) (victim refLine, evicted bool) {
	if len(r.lines) == r.ways {
		victim, evicted = r.lines[len(r.lines)-1], true
		r.lines = r.lines[:len(r.lines)-1]
	}
	r.lines = append([]refLine{{b, s}}, r.lines...)
	return
}

func (r *refSet) invalidate(b uint64) (State, bool) {
	if i := r.find(b); i >= 0 {
		s := r.lines[i].state
		r.lines = append(r.lines[:i], r.lines[i+1:]...)
		return s, true
	}
	return Invalid, false
}

// TestPackedCacheVsReferenceModel drives thousands of mixed operations
// through the packed-line cache and a naive map/slice reference model,
// cross-checking hits, victims, states, and (by draining each set at the
// end) the complete LRU order. This is the safety net under the packed
// storage layout and the fused Probe/Fill path.
func TestPackedCacheVsReferenceModel(t *testing.T) {
	const (
		sets  = 8
		ways  = 4
		space = 257 // prime: uneven set pressure
	)
	rng := rand.New(rand.NewSource(20260728))
	c := New(Config{Bytes: sets * ways * 64, Ways: ways, BlockBits: 6})
	ref := make([]*refSet, sets)
	for i := range ref {
		ref[i] = &refSet{ways: ways}
	}
	states := []State{Shared, Owned, Modified}

	checkVictim := func(step int, v Victim, ev bool, want refLine, wantEv bool) {
		t.Helper()
		if ev != wantEv {
			t.Fatalf("step %d: evicted=%v, reference %v", step, ev, wantEv)
		}
		if ev && (v.Block != want.block || v.State != want.state) {
			t.Fatalf("step %d: victim %+v, reference {%d %v}", step, v, want.block, want.state)
		}
	}

	for step := 0; step < 30000; step++ {
		b := uint64(rng.Intn(space))
		r := ref[b%sets]
		switch op := rng.Intn(10); {
		case op < 4: // read-like: probe, touch on hit, scan-free fill on miss
			line, hit := c.Probe(b)
			ri := r.find(b)
			if hit != (ri >= 0) {
				t.Fatalf("step %d: probe hit=%v, reference %v", step, hit, ri >= 0)
			}
			if hit {
				if got := c.State(line); got != r.lines[ri].state {
					t.Fatalf("step %d: state %v, reference %v", step, got, r.lines[ri].state)
				}
				if got := c.Block(line); got != b {
					t.Fatalf("step %d: Block = %d, want %d", step, got, b)
				}
				c.Touch(line)
				r.touch(ri)
			} else {
				st := states[rng.Intn(len(states))]
				v, ev, _ := c.Fill(b, st)
				want, wantEv := r.insert(b, st)
				checkVictim(step, v, ev, want, wantEv)
			}
		case op < 6: // residency-checked Fill (only legal when absent)
			if r.find(b) >= 0 {
				continue
			}
			if c.Contains(b) {
				t.Fatalf("step %d: Contains=true for a block the reference lacks", step)
			}
			st := states[rng.Intn(len(states))]
			v, ev, _ := c.Fill(b, st)
			want, wantEv := r.insert(b, st)
			checkVictim(step, v, ev, want, wantEv)
		case op < 7: // invalidate
			gs, gok := c.Invalidate(b)
			ws, wok := r.invalidate(b)
			if gok != wok || gs != ws {
				t.Fatalf("step %d: invalidate (%v,%v), reference (%v,%v)", step, gs, gok, ws, wok)
			}
		case op < 8: // in-place state change without LRU effect
			st := states[rng.Intn(len(states))]
			found := c.FindSetState(b, st)
			ri := r.find(b)
			if found != (ri >= 0) {
				t.Fatalf("step %d: FindSetState found=%v, reference %v", step, found, ri >= 0)
			}
			if found {
				r.lines[ri].state = st
			}
		default: // pure reads: Contains/Probe agree with the model
			if got, want := c.Contains(b), r.find(b) >= 0; got != want {
				t.Fatalf("step %d: Contains=%v, reference %v", step, got, want)
			}
			if _, ok := c.Probe(b); ok != (r.find(b) >= 0) {
				t.Fatalf("step %d: Probe disagrees with reference", step)
			}
		}
	}

	// Drain: push 2*ways fresh never-used blocks through every set and
	// check that evictions come out exactly in the reference's LRU order —
	// first every surviving line from the random phase, then the fresh
	// lines themselves in insertion order.
	for s := 0; s < sets; s++ {
		r := ref[s]
		for k := 0; k < 2*ways; k++ {
			fresh := uint64(512 + k*sets + s) // set s; beyond the random block space
			v, ev, _ := c.Fill(fresh, Shared)
			want, wantEv := r.insert(fresh, Shared)
			checkVictim(-s*100-k, v, ev, want, wantEv)
		}
	}
}

func TestProbeFillSequence(t *testing.T) {
	c := small() // 4 sets x 2 ways
	if _, hit := c.Probe(4); hit {
		t.Fatal("probe of empty set should miss")
	}
	c.Fill(0, Shared)
	if _, hit := c.Probe(4); hit {
		t.Fatal("probe of absent block should miss")
	}
	if v, ev, _ := c.Fill(4, Modified); ev {
		t.Fatalf("Fill into half-empty set evicted %+v", v)
	}
	if li, hit := c.Probe(4); !hit || c.State(li) != Modified {
		t.Fatal("filled block should hit with its state")
	}
	// Set now full; LRU is block 0 (filled first, never touched since).
	v, ev, _ := c.Fill(8, Shared)
	if !ev || v.Block != 0 || v.State != Shared {
		t.Fatalf("victim %+v evicted=%v, want block 0 Shared", v, ev)
	}
}

// TestLRUSixteenWays exercises the two-word SWAR rank path (the L2
// geometry) directly: fill a 16-way set, touch in a shuffled order, and
// check that evictions replay that exact order.
func TestLRUSixteenWays(t *testing.T) {
	c := New(Config{Bytes: 16 * 64, Ways: 16, BlockBits: 6}) // one set
	for b := uint64(0); b < 16; b++ {
		c.Fill(b, Shared)
	}
	order := []uint64{5, 3, 11, 0, 15, 8, 1, 14, 2, 9, 7, 12, 4, 13, 6, 10}
	for _, b := range order {
		i, ok := c.Probe(b)
		if !ok {
			t.Fatalf("block %d missing", b)
		}
		c.Touch(i)
	}
	for k, want := range order {
		v, ev, _ := c.Fill(uint64(100+k), Shared)
		if !ev || v.Block != want {
			t.Fatalf("eviction %d: victim %+v, want block %d", k, v, want)
		}
	}
}

func TestNonPowerOfTwoWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3-way geometry did not panic")
		}
	}()
	New(Config{Bytes: 3 * 4 * 64, Ways: 3, BlockBits: 6})
}

func TestRandomizedLRUProperty(t *testing.T) {
	// Against a reference model: per set, the victim is always the least
	// recently used line.
	rng := rand.New(rand.NewSource(42))
	c := New(Config{Bytes: 2048, Ways: 4, BlockBits: 6}) // 8 sets
	type ref struct {
		blocks []uint64 // MRU order, index 0 = most recent
	}
	sets := make([]ref, 8)
	for step := 0; step < 5000; step++ {
		b := uint64(rng.Intn(300))
		s := int(b % 8)
		if i, ok := c.Probe(b); ok {
			c.Touch(i)
			// move to front in ref
			r := &sets[s]
			for j, x := range r.blocks {
				if x == b {
					copy(r.blocks[1:j+1], r.blocks[:j])
					r.blocks[0] = b
					break
				}
			}
			continue
		}
		v, ev, _ := c.Fill(b, Shared)
		r := &sets[s]
		if ev {
			want := r.blocks[len(r.blocks)-1]
			if v.Block != want {
				t.Fatalf("step %d: victim %d, reference LRU %d", step, v.Block, want)
			}
			r.blocks = r.blocks[:len(r.blocks)-1]
		}
		r.blocks = append([]uint64{b}, r.blocks...)
		if len(r.blocks) > 4 {
			t.Fatalf("reference overflow")
		}
	}
}

func TestWideSetSignatureCeiling(t *testing.T) {
	// Blocks beyond the 16-bit signature range can never be resident
	// (Fill refuses them), so probes of such blocks must miss instead of
	// aliasing a resident line with the same truncated signature.
	c := New(Config{Bytes: 16 * 64, Ways: 16, BlockBits: 6}) // one set
	c.Fill(5, Shared)
	alias := uint64(5 + 1<<16)
	if c.Contains(alias) {
		t.Error("out-of-range block aliased a resident line")
	}
	if c.ReadHit(alias) {
		t.Error("ReadHit false-hit on out-of-range block")
	}
	if _, hit := c.Probe(alias); hit {
		t.Error("Probe false-hit on out-of-range block")
	}
	defer func() {
		if recover() == nil {
			t.Error("Fill of out-of-range block did not panic")
		}
	}()
	c.Fill(alias, Shared)
}
