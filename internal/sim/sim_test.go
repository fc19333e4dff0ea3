package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// tiny cache parameters keep working sets controllable in tests.
func tinyCaches() CacheParams {
	return CacheParams{L1Bytes: 512, L2Bytes: 4096, L2Ways: 4}
}

const testBlocks = 1 << 16

func addr(block uint64) uint64 { return block << 6 }

func lastMiss(t *trace.Trace) trace.Miss {
	return t.Misses[len(t.Misses)-1]
}

// --- Classifier unit tests -------------------------------------------------

func TestClassifierCompulsoryThenReplacement(t *testing.T) {
	var c [64]classWord
	if got := c[5].classifyRead(0, false, false); got != trace.Compulsory {
		t.Errorf("first access = %v, want Compulsory", got)
	}
	c[5].noteRead(0)
	if got := c[5].classifyRead(0, false, false); got != trace.Replacement {
		t.Errorf("re-read = %v, want Replacement", got)
	}
	// Another CPU's first read of a clean block read before by CPU 0:
	// replacement (no communication).
	if got := c[5].classifyRead(1, false, false); got != trace.Replacement {
		t.Errorf("cpu1 first read = %v, want Replacement", got)
	}
}

func TestClassifierCoherence(t *testing.T) {
	var c [64]classWord
	c[7].noteRead(0) // cpu0 reads
	c[7].noteWrite(1)
	if got := c[7].classifyRead(0, false, false); got != trace.Coherence {
		t.Errorf("read after remote write = %v, want Coherence", got)
	}
	// Own write does not make a later own read a coherence miss.
	c[8].noteWrite(0)
	if got := c[8].classifyRead(0, false, false); got != trace.Replacement {
		t.Errorf("read after own write = %v, want Replacement", got)
	}
	// Dirty remote supply is coherence even on a first read.
	c[9].noteWrite(1)
	if got := c[9].classifyRead(0, true, false); got != trace.Coherence {
		t.Errorf("dirty remote supply = %v, want Coherence", got)
	}
	// Single-chip off-chip misses degrade coherence to replacement.
	if got := c[7].classifyRead(0, false, true); got != trace.Replacement {
		t.Errorf("offChipCMP = %v, want Replacement", got)
	}
}

func TestClassifierIOCoherence(t *testing.T) {
	var c [64]classWord
	c[3].noteRead(0)
	c[3].noteDMA()
	if got := c[3].classifyRead(0, false, false); got != trace.IOCoherence {
		t.Errorf("read after DMA = %v, want IOCoherence", got)
	}
	// A block only ever DMA-written is still compulsory on first CPU touch.
	c[4].noteDMA()
	if got := c[4].classifyRead(1, false, false); got != trace.Compulsory {
		t.Errorf("first CPU read of DMA-only block = %v, want Compulsory", got)
	}
	// Copyout behaves like DMA.
	c[6].noteRead(0)
	c[6].noteCopyout()
	if got := c[6].classifyRead(0, false, false); got != trace.IOCoherence {
		t.Errorf("read after copyout = %v, want IOCoherence", got)
	}
	// A reader that never held the block does not take an I/O-coherence
	// miss: nothing of its was invalidated.
	if got := c[6].classifyRead(1, false, false); got != trace.Replacement {
		t.Errorf("first read of copyout block by other cpu = %v, want Replacement", got)
	}
}

// --- DSM protocol tests ----------------------------------------------------

func TestDSMColdThenLocalHit(t *testing.T) {
	m := NewDSM(4, tinyCaches(), testBlocks)
	m.Read(0, addr(100), 0)
	if m.OffChip().Len() != 1 || lastMiss(m.OffChip()).Class != trace.Compulsory {
		t.Fatalf("cold read: %+v", m.OffChip().Misses)
	}
	m.Read(0, addr(100), 0)
	if m.OffChip().Len() != 1 {
		t.Error("second read should hit locally")
	}
}

func TestDSMCoherenceMiss(t *testing.T) {
	m := NewDSM(4, tinyCaches(), testBlocks)
	b := addr(200)
	m.Read(1, b, 0)  // node 1 reads (compulsory)
	m.Write(0, b, 0) // node 0 writes: invalidates node 1
	m.Read(1, b, 0)  // node 1 re-reads: coherence, supplied by dirty node 0
	miss := lastMiss(m.OffChip())
	if miss.Class != trace.Coherence || miss.CPU != 1 {
		t.Errorf("miss = %+v, want Coherence at cpu 1", miss)
	}
	// The writer should now be downgraded; a further read at node 1 hits.
	n := m.OffChip().Len()
	m.Read(1, b, 0)
	if m.OffChip().Len() != n {
		t.Error("read after coherence fill should hit")
	}
}

func TestDSMWriteInvalidatesAllSharers(t *testing.T) {
	m := NewDSM(4, tinyCaches(), testBlocks)
	b := addr(300)
	for cpu := 0; cpu < 4; cpu++ {
		m.Read(cpu, b, 0)
	}
	m.Write(3, b, 0)
	for cpu := 0; cpu < 3; cpu++ {
		n := m.OffChip().Len()
		m.Read(cpu, b, 0)
		if m.OffChip().Len() != n+1 {
			t.Errorf("cpu %d should miss after remote write", cpu)
		}
		if got := lastMiss(m.OffChip()).Class; got != trace.Coherence {
			t.Errorf("cpu %d class = %v, want Coherence", cpu, got)
		}
	}
}

func TestDSMIOCoherenceAfterDMA(t *testing.T) {
	m := NewDSM(2, tinyCaches(), testBlocks)
	b := addr(400)
	m.Read(0, b, 0)
	m.DMAWrite(b, 64)
	m.Read(0, b, 0)
	if got := lastMiss(m.OffChip()).Class; got != trace.IOCoherence {
		t.Errorf("post-DMA read = %v, want IOCoherence", got)
	}
}

func TestDSMNonAllocStore(t *testing.T) {
	m := NewDSM(2, tinyCaches(), testBlocks)
	b := addr(500)
	m.Read(1, b, 0)
	m.NonAllocStore(0, b, 0)
	// CPU 0 never read the block before the copyout: its first read is a
	// plain (non-I/O) miss.
	m.Read(0, b, 0)
	if got := lastMiss(m.OffChip()).Class; got != trace.Replacement {
		t.Errorf("writer first read after copyout = %v, want Replacement", got)
	}
	// CPU 1 had read it: the copyout invalidated its copy.
	m.Read(1, b, 0)
	if got := lastMiss(m.OffChip()).Class; got != trace.IOCoherence {
		t.Errorf("reader read after copyout = %v, want IOCoherence", got)
	}
}

func TestDSMCapacityReplacement(t *testing.T) {
	m := NewDSM(1, tinyCaches(), testBlocks)
	// Sweep 4x the L2 capacity twice: second round misses are Replacement.
	blocks := 4 * 4096 / 64
	for round := 0; round < 2; round++ {
		for i := 0; i < blocks; i++ {
			m.Read(0, addr(uint64(1000+i)), 0)
		}
	}
	counts := m.OffChip().ClassCounts()
	if counts[trace.Compulsory] != blocks {
		t.Errorf("compulsory = %d, want %d", counts[trace.Compulsory], blocks)
	}
	if counts[trace.Replacement] != blocks {
		t.Errorf("replacement = %d, want %d", counts[trace.Replacement], blocks)
	}
}

func TestDSMInstructionFetchSeparateFromData(t *testing.T) {
	m := NewDSM(1, tinyCaches(), testBlocks)
	m.Fetch(0, addr(600), 0)
	m.Read(0, addr(601), 0)
	if m.OffChip().Len() != 2 {
		t.Fatal("expected two compulsory misses")
	}
	// Same block in both caches is possible; fetch then read of the same
	// address touches L1I then misses L1D.
	m.Fetch(0, addr(700), 0)
	n := m.OffChip().Len()
	m.Fetch(0, addr(700), 0)
	if m.OffChip().Len() != n {
		t.Error("repeat fetch should hit L1I")
	}
}

// --- CMP protocol tests ----------------------------------------------------

func TestCMPPeerL1Supply(t *testing.T) {
	m := NewCMP(4, tinyCaches(), testBlocks)
	b := addr(800)
	m.Write(0, b, 0) // dirty in cpu0's L1
	m.Read(1, b, 0)  // peer supply
	if m.IntraChip().Len() != 1 {
		t.Fatalf("intra misses = %d, want 1", m.IntraChip().Len())
	}
	miss := lastMiss(m.IntraChip())
	if miss.Supplier != trace.SupplierPeerL1 || miss.Class != trace.Coherence {
		t.Errorf("miss = %+v, want PeerL1/Coherence", miss)
	}
	if m.OffChip().Len() != 0 {
		t.Errorf("off-chip misses = %d, want 0 (write misses untraced)", m.OffChip().Len())
	}
}

func TestCMPCoherenceViaL2(t *testing.T) {
	m := NewCMP(2, tinyCaches(), testBlocks)
	b := addr(900)
	m.Read(1, b, 0) // cpu1 has read it (compulsory, off-chip)
	m.Write(0, b, 0)
	// Evict cpu0's dirty line into the L2 by sweeping its L1 set.
	// L1: 512B/2-way/64B = 4 sets; blocks congruent mod 4 share a set.
	for i := uint64(1); i <= 2; i++ {
		m.Write(0, addr(900+4*i), 0)
	}
	// cpu1 re-reads: must be satisfied by L2, cause Coherence.
	m.Read(1, b, 0)
	miss := lastMiss(m.IntraChip())
	if miss.Supplier != trace.SupplierL2 || miss.Class != trace.Coherence {
		t.Errorf("miss = %+v, want L2/Coherence", miss)
	}
}

func TestCMPReplacementViaL2(t *testing.T) {
	m := NewCMP(1, tinyCaches(), testBlocks)
	b := addr(1000)
	m.Read(0, b, 0) // compulsory
	// Evict from L1 into L2 (same set: stride 4 blocks).
	for i := uint64(1); i <= 2; i++ {
		m.Read(0, addr(1000+4*i), 0)
	}
	m.Read(0, b, 0)
	miss := lastMiss(m.IntraChip())
	if miss.Supplier != trace.SupplierL2 || miss.Class != trace.Replacement {
		t.Errorf("miss = %+v, want L2/Replacement", miss)
	}
}

func TestCMPOffChipCoherenceDowngraded(t *testing.T) {
	m := NewCMP(2, tinyCaches(), testBlocks)
	b := addr(1100)
	m.Read(1, b, 0)
	m.Write(0, b, 0)
	// Push the block fully off chip: sweep cpu0's L1 set and the L2 set.
	// L2: 4096B/4-way/64B = 16 sets.
	for i := uint64(1); i <= 8; i++ {
		m.Write(0, addr(1100+16*i), 0)
	}
	// cpu1 read misses everywhere: off-chip, and NOT coherence.
	n := m.OffChip().Len()
	m.Read(1, b, 0)
	if m.OffChip().Len() != n+1 {
		t.Fatalf("expected off-chip miss (intra=%d)", m.IntraChip().Len())
	}
	if got := lastMiss(m.OffChip()).Class; got != trace.Replacement {
		t.Errorf("off-chip class = %v, want Replacement (downgraded)", got)
	}
}

func TestCMPDMAInvalidatesWholeChip(t *testing.T) {
	m := NewCMP(2, tinyCaches(), testBlocks)
	b := addr(1200)
	m.Read(0, b, 0)
	m.Read(1, b, 0)
	m.DMAWrite(b, 64)
	n := m.OffChip().Len()
	m.Read(0, b, 0)
	if m.OffChip().Len() != n+1 {
		t.Fatal("post-DMA read must go off chip")
	}
	if got := lastMiss(m.OffChip()).Class; got != trace.IOCoherence {
		t.Errorf("class = %v, want IOCoherence", got)
	}
}

func TestCMPVictimMovesToL2NotDuplicated(t *testing.T) {
	m := NewCMP(1, tinyCaches(), testBlocks)
	b := addr(1300)
	m.Read(0, b, 0)
	// Evict from L1 (stride = L1 set count = 4 blocks).
	m.Read(0, addr(1304), 0)
	m.Read(0, addr(1308), 0)
	// Re-read: should come from L2 (intra-chip), and the L2 line moves up.
	n := m.IntraChip().Len()
	m.Read(0, b, 0)
	if m.IntraChip().Len() != n+1 {
		t.Fatal("expected intra-chip L2 hit")
	}
	if lastMiss(m.IntraChip()).Supplier != trace.SupplierL2 {
		t.Error("supplier should be L2")
	}
}

// --- randomized cross-model sanity ------------------------------------------

// TestRandomAccessesNeverPanicAndClassesTotal runs a random mixed workload
// through both machines and checks accounting invariants.
func TestRandomAccessesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dsm := NewDSM(4, tinyCaches(), testBlocks)
	cmp := NewCMP(4, tinyCaches(), testBlocks)
	for i := 0; i < 200000; i++ {
		cpu := rng.Intn(4)
		b := addr(uint64(rng.Intn(4096)))
		switch rng.Intn(10) {
		case 0:
			dsm.Write(cpu, b, 0)
			cmp.Write(cpu, b, 0)
		case 1:
			dsm.NonAllocStore(cpu, b, 0)
			cmp.NonAllocStore(cpu, b, 0)
		case 2:
			dsm.DMAWrite(b, 256)
			cmp.DMAWrite(b, 256)
		case 3:
			dsm.Fetch(cpu, b, 0)
			cmp.Fetch(cpu, b, 0)
		default:
			dsm.Read(cpu, b, 0)
			cmp.Read(cpu, b, 0)
		}
	}
	dsm.Tick(0, 1000)
	cmp.Tick(0, 1000)
	// Class counts total to trace length.
	for _, tr := range []*trace.Trace{dsm.OffChip(), cmp.OffChip(), cmp.IntraChip()} {
		sum := 0
		for _, n := range tr.ClassCounts() {
			sum += n
		}
		if sum != tr.Len() {
			t.Errorf("class counts %v do not total %d", tr.ClassCounts(), tr.Len())
		}
	}
	// Single-chip off-chip trace must contain no Coherence class at all.
	if n := cmp.OffChip().ClassCounts()[trace.Coherence]; n != 0 {
		t.Errorf("single-chip off-chip coherence misses = %d, want 0", n)
	}
	if dsm.OffChip().MPKI() <= 0 {
		t.Error("MPKI should be positive")
	}
}

func TestDMAWriteZeroSize(t *testing.T) {
	// Regression: blockOf(addr+size-1) wraps for size == 0, which would
	// turn the DMA loop bound into ^uint64(0) and sweep the whole address
	// space. A zero-size DMA must touch nothing on either machine.
	dsm := NewDSM(2, tinyCaches(), testBlocks)
	cmp := NewCMP(2, tinyCaches(), testBlocks)
	dsm.Read(0, addr(42), 0)
	cmp.Read(0, addr(42), 0)
	dsm.DMAWrite(addr(42), 0)
	cmp.DMAWrite(addr(42), 0)
	// The cached copies must survive: a zero-size write invalidates
	// nothing and bumps no classifier state.
	n := dsm.OffChip().Len()
	dsm.Read(0, addr(42), 0)
	if dsm.OffChip().Len() != n {
		t.Error("DSM: zero-size DMA invalidated a cached block")
	}
	n = cmp.OffChip().Len()
	cmp.Read(0, addr(42), 0)
	if cmp.OffChip().Len() != n {
		t.Error("CMP: zero-size DMA invalidated a cached block")
	}
	// Also must not misclassify the next read of an uncached block as
	// I/O-coherence.
	dsm.Read(1, addr(43), 0)
	if got := lastMiss(dsm.OffChip()).Class; got != trace.Compulsory {
		t.Errorf("post-zero-DMA first read = %v, want Compulsory", got)
	}
}

// TestMachinesBuildTwoWayL1s: both machines build every L1 2-way, the
// width their inlined L1 hit test (cache.ReadHit2) is specialized to, and
// the L2s as the parameters say.
func TestMachinesBuildTwoWayL1s(t *testing.T) {
	p := tinyCaches()
	dsm := NewDSM(2, p, testBlocks)
	cmp := NewCMP(2, p, testBlocks)
	var l1s, l2s []*cache.Cache
	for i := range dsm.nodes {
		l1s = append(l1s, &dsm.nodes[i].l1i, &dsm.nodes[i].l1d)
		l2s = append(l2s, &dsm.nodes[i].l2)
	}
	for i := range cmp.l1i {
		l1s = append(l1s, &cmp.l1i[i], &cmp.l1d[i])
	}
	l2s = append(l2s, cmp.l2)
	for _, c := range l1s {
		if want := (cache.Config{Bytes: p.L1Bytes, Ways: 2, BlockBits: 6}); c.Config() != want {
			t.Errorf("L1 built %+v, want %+v", c.Config(), want)
		}
	}
	for _, c := range l2s {
		if want := (cache.Config{Bytes: p.L2Bytes, Ways: p.L2Ways, BlockBits: 6}); c.Config() != want {
			t.Errorf("L2 built %+v, want %+v", c.Config(), want)
		}
	}
	if len(l1s) != 8 || len(l2s) != 3 {
		t.Fatalf("checked %d L1s and %d L2s, want 8 and 3", len(l1s), len(l2s))
	}
}
