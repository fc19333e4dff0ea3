package sim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/trace"
)

// DSM models the multi-chip distributed-shared-memory system: every node
// has private split L1s and a private inclusive L2; an MSI full-map
// directory keeps the L2s coherent. Every read that misses the node's
// hierarchy is an off-chip miss (whether satisfied by memory or a remote
// node) and is recorded in the off-chip trace.
//
// The hot paths are single-pass: Read/Fetch resolve the (by far most
// common) L1-hit case with one fused probe+touch and fall into the shared
// miss path otherwise; each cache level's set is scanned at most once per
// protocol step; sharer iteration runs as inline bitmask loops. Per-node
// state lives in one contiguous nodes slice so an access indexes a single
// struct instead of three parallel pointer slices, and per-block state in
// one record per block, so a miss reads its classifier word and directory
// entry from one host cache line.
type DSM struct {
	ncpu    int
	nodes   []dsmNode
	blocks  []dsmBlock
	off     trace.Trace
	ownOff  trace.Gate  // the machine-owned gate, open onto off
	offGate *trace.Gate // destination of off-chip records; defaults to &ownOff
	instr   uint64
}

// dsmNode is one single-core node's private hierarchy.
type dsmNode struct {
	l1i, l1d, l2 cache.Cache
}

// dsmBlock is one block's state record: the classifier word beside the
// block's directory entry. The zero record is an untouched, uncached block.
type dsmBlock struct {
	cls classWord
	dir coherence.DirEntry
}

// NewDSM builds a multi-chip system of ncpu single-core nodes over a
// compact address space of nblocks blocks.
func NewDSM(ncpu int, p CacheParams, nblocks uint64) *DSM {
	if ncpu > maxClassifierCPUs || ncpu > coherence.MaxNodes {
		panic("sim: the DSM supports at most 16 nodes")
	}
	m := &DSM{
		ncpu:   ncpu,
		nodes:  make([]dsmNode, ncpu),
		blocks: make([]dsmBlock, nblocks),
	}
	for i := range m.nodes {
		m.nodes[i].l1i = *cache.New(p.l1())
		m.nodes[i].l1d = *cache.New(p.l1())
		m.nodes[i].l2 = *cache.New(p.l2())
	}
	m.off.CPUs = ncpu
	m.ownOff.Open(&m.off)
	m.offGate = &m.ownOff
	return m
}

// CPUs implements Machine.
func (m *DSM) CPUs() int { return m.ncpu }

// SetGates implements Machine; the DSM has no intra-chip stream, so intra
// is ignored.
func (m *DSM) SetGates(off, intra *trace.Gate) {
	if off == nil {
		off = &m.ownOff
	}
	m.offGate = off
	_ = intra
}

// OffChip implements Machine. It first flushes the machine-owned gate, so
// the trace holds every record emitted so far. Instruction counts
// accumulate in a scalar on Tick and are folded into the trace here,
// keeping the per-step path free of trace-header stores.
func (m *DSM) OffChip() *trace.Trace {
	m.ownOff.Flush()
	m.off.Instructions = m.instr
	return &m.off
}

// IntraChip implements Machine; the DSM has no shared chip.
func (m *DSM) IntraChip() *trace.Trace { return nil }

// Tick implements Machine.
func (m *DSM) Tick(cpu int, n uint64) { m.instr += n }

// fillL1 inserts b into an L1 (the caller's probe missed), spilling any
// dirty victim's state into the (inclusive) L2.
func (m *DSM) fillL1(n *dsmNode, l1 *cache.Cache, b uint64, st cache.State) {
	victim, evicted, _ := l1.Fill(b, st)
	if evicted && victim.State.Dirty() {
		// Inclusive hierarchy: the victim must be present in the L2.
		n.l2.FindSetState(victim.Block, cache.Modified)
	}
}

// evictL2 handles an L2 victim: back-invalidate the L1s (inclusion) and
// update the directory (a dirty victim is written back to memory).
func (m *DSM) evictL2(n *dsmNode, cpu int, v cache.Victim) {
	n.l1i.Invalidate(v.Block)
	n.l1d.Invalidate(v.Block)
	m.blocks[v.Block].dir.RemoveSharer(cpu)
}

// readMiss is the shared L1-miss tail of Read and Fetch.
func (m *DSM) readMiss(n *dsmNode, l1 *cache.Cache, cpu int, b uint64, fn trace.FuncID) {
	if n.l2.ReadHit(b) {
		// Node-level hit: not an off-chip miss, not traced (the multi-chip
		// context traces off-chip misses only). A resident line implies
		// this node already observed the current write version (any newer
		// write or DMA would have invalidated the copy), so the classifier
		// needs no noteRead.
		m.fillL1(n, l1, b, cache.Shared)
		return
	}
	// Off-chip read miss. Behind a closed gate the record is only
	// counted: classifyRead is pure, so skipping it changes no state.
	r := &m.blocks[b]
	owner := r.dir.Owner()
	remoteDirty := owner >= 0 && owner != cpu
	if g := m.offGate; g.Closed() {
		g.Count()
	} else {
		g.Append(trace.Miss{
			Addr:     b << 6,
			Func:     fn,
			CPU:      uint8(cpu),
			Class:    r.cls.classifyRead(cpu, remoteDirty, false),
			Supplier: trace.SupplierMemory,
		})
	}
	if remoteDirty {
		// Remote owner downgrades M -> S and writes back. Only remote
		// caches are touched, so the local L2 probe stays valid.
		ro := &m.nodes[owner]
		ro.l2.FindSetState(b, cache.Shared)
		ro.l1d.FindSetState(b, cache.Shared)
		r.dir.Downgrade()
	}
	r.dir.AddSharer(cpu)
	r.cls.noteRead(cpu)
	if v, ev, _ := n.l2.Fill(b, cache.Shared); ev {
		m.evictL2(n, cpu, v)
	}
	// The L2 eviction may have back-invalidated a line of this very L1
	// set, so the fill must pick its slot from a fresh scan.
	m.fillL1(n, l1, b, cache.Shared)
}

// Read implements Machine. The L1-hit fast path (a resident line implies
// the classifier already holds the current version, see readMiss) is the
// inlined 2-way hit test.
func (m *DSM) Read(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	n := &m.nodes[cpu]
	if n.l1d.ReadHit2(b) {
		return
	}
	m.readMiss(n, &n.l1d, cpu, b, fn)
}

// Fetch implements Machine.
func (m *DSM) Fetch(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	n := &m.nodes[cpu]
	if n.l1i.ReadHit2(b) {
		return
	}
	m.readMiss(n, &n.l1i, cpu, b, fn)
}

// ReadRun reads every block of the block-aligned range [from, to) in
// ascending order: exactly the Read calls of a per-block loop, in one
// call, with the L1 hit test inline.
func (m *DSM) ReadRun(cpu int, from, to uint64, fn trace.FuncID) {
	n := &m.nodes[cpu]
	m.readRun(n, &n.l1d, cpu, from, to, fn)
}

// FetchRun is ReadRun for instruction fetches.
func (m *DSM) FetchRun(cpu int, from, to uint64, fn trace.FuncID) {
	n := &m.nodes[cpu]
	m.readRun(n, &n.l1i, cpu, from, to, fn)
}

// readRun is the loop of ReadRun and FetchRun over node n's L1 l1.
func (m *DSM) readRun(n *dsmNode, l1 *cache.Cache, cpu int, from, to uint64, fn trace.FuncID) {
	for b, end := blockOf(from), blockOf(to); b < end; b++ {
		if !l1.ReadHit2(b) {
			m.readMiss(n, l1, cpu, b, fn)
		}
	}
}

// WriteRun is ReadRun for writes: exactly the Write calls of a per-block
// loop.
func (m *DSM) WriteRun(cpu int, from, to uint64, fn trace.FuncID) {
	n := &m.nodes[cpu]
	for b, end := blockOf(from), blockOf(to); b < end; b++ {
		m.write(n, cpu, b)
	}
}

// Write implements Machine. Write misses are simulated for their coherence
// side effects but, per the paper's methodology, only read misses are
// traced.
func (m *DSM) Write(cpu int, addr uint64, fn trace.FuncID) {
	m.write(&m.nodes[cpu], cpu, blockOf(addr))
}

// write is Write for block b of node n.
func (m *DSM) write(n *dsmNode, cpu int, b uint64) {
	r := &m.blocks[b]
	li, l1hit, mod := n.l1d.WriteHit(b)
	if mod {
		r.cls.noteWrite(cpu)
		return
	}
	// Gain exclusivity: invalidate all remote copies. Only remote nodes
	// are touched, so the local L1 probe stays valid across the sweep.
	m.invalidateRemote(b, cpu)
	r.dir.SetOwner(cpu)
	r.cls.noteWrite(cpu)
	if i, hit := n.l2.Probe(b); hit {
		n.l2.SetState(i, cache.Modified)
		n.l2.Touch(i)
	} else if v, ev, _ := n.l2.Fill(b, cache.Modified); ev {
		m.evictL2(n, cpu, v)
	}
	if l1hit {
		// The L2 eviction cannot have displaced b's own L1 line (the
		// victim is a different block), so the probed line still holds b.
		n.l1d.SetState(li, cache.Modified)
		n.l1d.Touch(li)
	} else {
		m.fillL1(n, &n.l1d, b, cache.Modified)
	}
}

// invalidateRemote removes every cached copy of b outside node keep
// (keep == -1 invalidates everywhere), walking the directory's sharer
// bitmap inline.
func (m *DSM) invalidateRemote(b uint64, keep int) {
	r := &m.blocks[b]
	sharers := r.dir.Sharers()
	if keep >= 0 {
		sharers &^= 1 << uint(keep)
	}
	for sharers != 0 {
		node := bits.TrailingZeros16(sharers)
		sharers &^= 1 << uint(node)
		n := &m.nodes[node]
		// Inclusive hierarchy: an L1 can only hold what the node's L2
		// holds, so when the L2 turns out not to have the block (the
		// directory's sharer set is a superset of residency) the L1 scans
		// are skipped — the resulting state is identical.
		if _, held := n.l2.Invalidate(b); held {
			n.l1i.Invalidate(b)
			n.l1d.Invalidate(b)
		}
		r.dir.RemoveSharer(node)
	}
}

// NonAllocStore implements Machine: the store invalidates all cached
// copies (including the writer's own) without allocating.
func (m *DSM) NonAllocStore(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	m.invalidateRemote(b, -1)
	r := &m.blocks[b]
	r.dir.Clear()
	r.cls.noteCopyout()
	_ = fn
}

// DMAWrite implements Machine. A zero-size write touches nothing (the
// block arithmetic would otherwise wrap).
func (m *DSM) DMAWrite(addr uint64, size uint64) {
	if size == 0 {
		return
	}
	for b := blockOf(addr); b <= blockOf(addr+size-1); b++ {
		m.invalidateRemote(b, -1)
		r := &m.blocks[b]
		r.dir.Clear()
		r.cls.noteDMA()
	}
}
