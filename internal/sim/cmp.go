package sim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/trace"
)

// CMP models the single-chip multiprocessor: private split L1s per core
// and one shared L2, non-inclusive (victim-style: blocks move L2 -> L1 on
// hits and L1 -> L2 on evictions), with a MOSI intra-chip protocol closely
// following Piranha. Two traces are collected:
//
//   - off-chip: L1 misses that no on-chip cache can satisfy (Figure 1
//     left, "single-chip"; Figure 2/3/4 "single-chip" context);
//   - intra-chip: L1 misses satisfied by the shared L2 or a peer L1
//     (Figure 1 right; the "intra-chip" analysis context).
//
// Following the paper, an intra-chip miss's class (Coherence vs
// Replacement) is its cause, while its Supplier records which level
// provided the data: coherence misses may be satisfied by a peer L1 or by
// the L2 (after the owner's dirty line was evicted into it).
//
// Like the DSM, the hot paths are single-pass: Read/Fetch resolve the
// L1-hit case with one fused probe+touch, each level's set is scanned at
// most once per protocol step, and holder iteration runs as inline
// bitmask loops over the block's presence entry. The presence entry also
// records whether the shared L2 holds the block, so the L2 is probed or
// invalidated only for blocks it holds.
type CMP struct {
	ncpu      int
	l1i       []cache.Cache
	l1d       []cache.Cache
	l2        *cache.Cache
	blocks    []cmpBlock
	off       trace.Trace
	intra     trace.Trace
	ownOff    trace.Gate  // the machine-owned gate, open onto off
	ownIntra  trace.Gate  // the machine-owned gate, open onto intra
	offGate   *trace.Gate // destination of off-chip records; defaults to &ownOff
	intraGate *trace.Gate // destination of intra-chip records; defaults to &ownIntra
	instr     uint64
}

// cmpBlock is one block's state record: the classifier word beside the
// block's on-chip presence entry. The zero record is an untouched block
// held nowhere on chip.
type cmpBlock struct {
	cls  classWord
	pres coherence.PresenceEntry
}

// NewCMP builds a single-chip system with ncpu cores over a compact
// address space of nblocks blocks.
func NewCMP(ncpu int, p CacheParams, nblocks uint64) *CMP {
	if ncpu > coherence.MaxCores {
		panic("sim: the CMP supports at most 8 cores")
	}
	m := &CMP{
		ncpu:   ncpu,
		l2:     cache.New(p.l2()),
		blocks: make([]cmpBlock, nblocks),
	}
	for i := 0; i < ncpu; i++ {
		m.l1i = append(m.l1i, *cache.New(p.l1()))
		m.l1d = append(m.l1d, *cache.New(p.l1()))
	}
	m.off.CPUs = ncpu
	m.intra.CPUs = ncpu
	m.ownOff.Open(&m.off)
	m.ownIntra.Open(&m.intra)
	m.offGate, m.intraGate = &m.ownOff, &m.ownIntra
	return m
}

// CPUs implements Machine.
func (m *CMP) CPUs() int { return m.ncpu }

// SetGates implements Machine.
func (m *CMP) SetGates(off, intra *trace.Gate) {
	if off == nil {
		off = &m.ownOff
	}
	if intra == nil {
		intra = &m.ownIntra
	}
	m.offGate = off
	m.intraGate = intra
}

// OffChip implements Machine; see DSM.OffChip for the flush and the lazy
// instruction fold.
func (m *CMP) OffChip() *trace.Trace {
	m.ownOff.Flush()
	m.off.Instructions = m.instr
	return &m.off
}

// IntraChip implements Machine.
func (m *CMP) IntraChip() *trace.Trace {
	m.ownIntra.Flush()
	m.intra.Instructions = m.instr
	return &m.intra
}

// Tick implements Machine.
func (m *CMP) Tick(cpu int, n uint64) { m.instr += n }

// fillL1 inserts b into cpu's L1 (instruction or data side); the victim
// spills into the shared L2 (victim-style non-inclusion).
func (m *CMP) fillL1(cpu int, l1 *cache.Cache, b uint64, st cache.State) {
	victim, evicted, _ := l1.Fill(b, st)
	if st.Dirty() {
		m.blocks[b].pres.SetOwner(cpu)
	} else {
		m.blocks[b].pres.Add(cpu)
	}
	if !evicted {
		return
	}
	vr := &m.blocks[victim.Block]
	vr.pres.Remove(cpu)
	// Spill the victim into the L2 unless the L2 already holds it (then
	// only a dirty victim's state is merged). Piranha keeps a single
	// on-chip copy path; we approximate by allocating whenever the L2
	// lacks the block.
	if vr.pres.InL2() {
		if victim.State.Dirty() {
			li, _ := m.l2.Probe(victim.Block)
			m.l2.SetState(li, cache.Modified)
		}
		return
	}
	l2st := cache.Shared
	if victim.State.Dirty() {
		l2st = cache.Modified
	}
	// L2 victim, if any, is silently dropped: a dirty line is written back
	// to memory, and peer L1 copies survive (non-inclusive hierarchy).
	if v, ev, _ := m.l2.Fill(victim.Block, l2st); ev {
		m.blocks[v.Block].pres.SetInL2(false)
	}
	vr.pres.SetInL2(true)
}

// intraMiss records an L1 miss satisfied on chip, classified from the
// block's classifier word w before the read is noted. Behind a closed
// gate the record is only counted: classifyRead is pure, so skipping it
// changes no state.
func (m *CMP) intraMiss(cpu int, b uint64, fn trace.FuncID, w classWord, remoteDirty bool, sup trace.Supplier) {
	g := m.intraGate
	if g.Closed() {
		g.Count()
		return
	}
	class := w.classifyRead(cpu, remoteDirty, false)
	if !remoteDirty && (class == trace.Compulsory || class == trace.IOCoherence) {
		// Cannot happen for a clean on-chip block (DMA and copyout
		// invalidate; untouched blocks are uncached), but keep the
		// taxonomy total.
		class = trace.Replacement
	}
	g.Append(trace.Miss{
		Addr:     b << 6,
		Func:     fn,
		CPU:      uint8(cpu),
		Class:    class,
		Supplier: sup,
	})
}

// readMiss is the shared L1-miss tail of Read and Fetch.
func (m *CMP) readMiss(l1 *cache.Cache, cpu int, b uint64, fn trace.FuncID) {
	// L1 miss: determine the cause before protocol state changes.
	r := &m.blocks[b]
	owner := r.pres.Owner()
	remoteDirty := owner >= 0 && owner != cpu
	switch {
	case remoteDirty:
		// Peer L1 holds the block dirty: it supplies the data and keeps an
		// Owned copy (MOSI; no writeback to L2 on the forwarding path).
		m.intraMiss(cpu, b, fn, r.cls, true, trace.SupplierPeerL1)
		if i, hit := m.l1d[owner].Probe(b); hit && m.l1d[owner].State(i) == cache.Modified {
			m.l1d[owner].SetState(i, cache.Owned)
		}
		m.fillL1(cpu, l1, b, cache.Shared)
	case r.pres.InL2():
		// Shared L2 hit: move the block up into the L1 (victim-style).
		i, _ := m.l2.Probe(b)
		m.intraMiss(cpu, b, fn, r.cls, false, trace.SupplierL2)
		if m.l2.State(i).Dirty() {
			// The L2 holds the only dirty copy (the owner's line was
			// evicted into it). It supplies the data and keeps the
			// dirty line; the reader gets a Shared copy.
			m.l2.Touch(i)
		} else {
			// Clean line: victim-style move up into the L1.
			m.l2.SetState(i, cache.Invalid)
			r.pres.SetInL2(false)
		}
		m.fillL1(cpu, l1, b, cache.Shared)
	case r.pres.HasPeer(cpu):
		// Clean copy in a peer L1 only (non-inclusive L2 lost its
		// copy): the peer supplies.
		m.intraMiss(cpu, b, fn, r.cls, false, trace.SupplierPeerL1)
		m.fillL1(cpu, l1, b, cache.Shared)
	default:
		// Off-chip miss.
		if g := m.offGate; g.Closed() {
			g.Count()
		} else {
			g.Append(trace.Miss{
				Addr:     b << 6,
				Func:     fn,
				CPU:      uint8(cpu),
				Class:    r.cls.classifyRead(cpu, false, true),
				Supplier: trace.SupplierMemory,
			})
		}
		m.fillL1(cpu, l1, b, cache.Shared)
	}
	r.cls.noteRead(cpu)
}

// Read implements Machine. Unlike the DSM (whose invalidations are
// node-granular), the presence entry tracks cores, not individual L1
// arrays, so a stale copy can survive in one L1 side after the other
// side's copy was evicted and a peer wrote — the L1-hit path therefore
// keeps the seed's noteRead.
func (m *CMP) Read(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	l1 := &m.l1d[cpu]
	if l1.ReadHit2(b) {
		m.blocks[b].cls.noteRead(cpu)
		return
	}
	m.readMiss(l1, cpu, b, fn)
}

// Fetch implements Machine.
func (m *CMP) Fetch(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	l1 := &m.l1i[cpu]
	if l1.ReadHit2(b) {
		m.blocks[b].cls.noteRead(cpu)
		return
	}
	m.readMiss(l1, cpu, b, fn)
}

// ReadRun reads every block of the block-aligned range [from, to) in
// ascending order: exactly the Read calls of a per-block loop, in one
// call, with the L1 hit test inline.
func (m *CMP) ReadRun(cpu int, from, to uint64, fn trace.FuncID) {
	m.readRun(&m.l1d[cpu], cpu, from, to, fn)
}

// FetchRun is ReadRun for instruction fetches.
func (m *CMP) FetchRun(cpu int, from, to uint64, fn trace.FuncID) {
	m.readRun(&m.l1i[cpu], cpu, from, to, fn)
}

// readRun is the loop of ReadRun and FetchRun over cpu's L1 l1.
func (m *CMP) readRun(l1 *cache.Cache, cpu int, from, to uint64, fn trace.FuncID) {
	for b, end := blockOf(from), blockOf(to); b < end; b++ {
		if l1.ReadHit2(b) {
			m.blocks[b].cls.noteRead(cpu)
		} else {
			m.readMiss(l1, cpu, b, fn)
		}
	}
}

// WriteRun is ReadRun for writes: exactly the Write calls of a per-block
// loop.
func (m *CMP) WriteRun(cpu int, from, to uint64, fn trace.FuncID) {
	for b, end := blockOf(from), blockOf(to); b < end; b++ {
		m.write(cpu, b)
	}
}

// Write implements Machine. Only read misses are traced; writes drive
// protocol state (invalidations) and classification versions.
func (m *CMP) Write(cpu int, addr uint64, fn trace.FuncID) {
	m.write(cpu, blockOf(addr))
}

// write is Write for block b.
func (m *CMP) write(cpu int, b uint64) {
	r := &m.blocks[b]
	l1d := &m.l1d[cpu]
	li, l1hit, mod := l1d.WriteHit(b)
	if mod {
		r.cls.noteWrite(cpu)
		return
	}
	// Invalidate every other on-chip copy; the writer's own L1 line (and
	// with it the probe above) is untouched by the peer sweep.
	holders := r.pres.Holders() &^ (1 << uint(cpu))
	for holders != 0 {
		peer := bits.TrailingZeros8(holders)
		holders &^= 1 << uint(peer)
		m.l1i[peer].Invalidate(b)
		m.l1d[peer].Invalidate(b)
		r.pres.Remove(peer)
	}
	if r.pres.InL2() {
		m.l2.Invalidate(b)
		r.pres.SetInL2(false)
	}
	if l1hit {
		l1d.SetState(li, cache.Modified)
		l1d.Touch(li)
	} else {
		m.fillL1(cpu, l1d, b, cache.Modified)
	}
	r.pres.SetOwner(cpu)
	r.cls.noteWrite(cpu)
}

// invalidateAll removes every on-chip copy of b.
func (m *CMP) invalidateAll(b uint64) {
	r := &m.blocks[b]
	holders := r.pres.Holders()
	for holders != 0 {
		cpu := bits.TrailingZeros8(holders)
		holders &^= 1 << uint(cpu)
		m.l1i[cpu].Invalidate(b)
		m.l1d[cpu].Invalidate(b)
	}
	if r.pres.InL2() {
		m.l2.Invalidate(b)
	}
	r.pres.Clear()
}

// NonAllocStore implements Machine.
func (m *CMP) NonAllocStore(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	m.invalidateAll(b)
	m.blocks[b].cls.noteCopyout()
	_ = fn
}

// DMAWrite implements Machine. A zero-size write touches nothing (the
// block arithmetic would otherwise wrap).
func (m *CMP) DMAWrite(addr uint64, size uint64) {
	if size == 0 {
		return
	}
	for b := blockOf(addr); b <= blockOf(addr+size-1); b++ {
		m.invalidateAll(b)
		m.blocks[b].cls.noteDMA()
	}
}
