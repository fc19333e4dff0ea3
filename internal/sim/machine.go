// Package sim implements the two machine models of the paper's Section 3
// as timing-free functional simulators:
//
//   - DSM: a 16-node distributed-shared-memory multiprocessor, one core per
//     chip with private split L1s and a private L2, kept coherent by a
//     full-map MSI directory (the multi-chip context);
//   - CMP: a 4-core single-chip multiprocessor with private split L1s and a
//     shared non-inclusive L2, kept coherent by a Piranha-like MOSI
//     intra-chip protocol (the single-chip and intra-chip contexts).
//
// The paper collects traces "with in-order execution and no memory system
// stalls", so no timing is modeled: the simulators are exactly the state
// machines that determine which accesses miss, where they are satisfied,
// and how each miss is classified.
package sim

import (
	"repro/internal/cache"
	"repro/internal/memmap"
	"repro/internal/trace"
)

// Machine is the memory-system interface the execution engine drives.
// Addresses are byte addresses; block granularity is handled internally.
type Machine interface {
	// Read performs a data read by cpu inside function fn.
	Read(cpu int, addr uint64, fn trace.FuncID)
	// Write performs a data write by cpu inside function fn.
	Write(cpu int, addr uint64, fn trace.FuncID)
	// Fetch performs an instruction fetch by cpu for function fn.
	Fetch(cpu int, addr uint64, fn trace.FuncID)
	// NonAllocStore performs a store that bypasses the cache hierarchy
	// (the SPARC block-store instructions used by default_copyout),
	// invalidating any cached copies without allocating.
	NonAllocStore(cpu int, addr uint64, fn trace.FuncID)
	// DMAWrite models a device writing size bytes at addr.
	DMAWrite(addr uint64, size uint64)
	// Tick accounts n retired instructions to cpu.
	Tick(cpu int, n uint64)
	// CPUs returns the number of processors.
	CPUs() int
	// OffChip returns the machine-owned off-chip read-miss trace. The
	// machine emits into it through a gate of its own, which OffChip
	// flushes first, and the trace's Instructions field is folded from
	// the machine's counter at call time: re-call OffChip after further
	// activity rather than reading a retained pointer.
	OffChip() *trace.Trace
	// IntraChip returns the trace of L1 misses satisfied on chip, or nil
	// for machines without a shared chip (the DSM). The same call-time
	// contract as OffChip applies.
	IntraChip() *trace.Trace
	// SetGates reroutes miss records: off receives off-chip read misses,
	// intra receives on-chip-satisfied L1 misses (ignored by machines
	// without a shared chip). A nil gate restores the machine-owned gate
	// and trace for that stream. The machine never finishes a gate's
	// stream: whoever drives the simulation owns the end-of-stream
	// header fold.
	SetGates(off, intra *trace.Gate)
}

// CacheParams sizes one node's (or the chip's) hierarchy. Every L1 is
// l1Ways-way.
type CacheParams struct {
	L1Bytes int // per split L1 (I and D each)
	L2Bytes int
	L2Ways  int
}

// l1Ways is the associativity of every L1: the paper's 2-way geometry,
// which the machines' inlined L1 hit test (cache.ReadHit2) is
// specialized to.
const l1Ways = 2

// l1 returns the geometry of one of p's split L1s.
func (p CacheParams) l1() cache.Config {
	return cache.Config{Bytes: p.L1Bytes, Ways: l1Ways, BlockBits: 6}
}

// l2 returns the geometry of p's L2.
func (p CacheParams) l2() cache.Config {
	return cache.Config{Bytes: p.L2Bytes, Ways: p.L2Ways, BlockBits: 6}
}

// PaperCaches returns the paper's cache geometry: split 2-way 64 KB L1 I/D
// and a 16-way 8 MB L2.
func PaperCaches() CacheParams {
	return CacheParams{L1Bytes: 64 << 10, L2Bytes: 8 << 20, L2Ways: 16}
}

// blockOf converts a byte address to a block number.
func blockOf(addr uint64) uint64 { return addr >> memmap.BlockBits }
