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
	"fmt"

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

// CacheParams sizes one node's (or the chip's) hierarchy.
type CacheParams struct {
	L1Bytes int // per split L1 (I and D each)
	L1Ways  int // must be 2: the machines' L1 hit test is the 2-way one
	L2Bytes int
	L2Ways  int
}

// check panics unless the L1s are 2-way, the paper's geometry, which the
// machines' inlined L1 hit test (cache.ReadHit2) is specialized to.
func (p CacheParams) check() {
	if p.L1Ways != 2 {
		panic(fmt.Sprintf("sim: the L1s must be 2-way, not %d-way", p.L1Ways))
	}
}

// PaperCaches returns the paper's cache geometry: split 2-way 64 KB L1 I/D
// and a 16-way 8 MB L2.
func PaperCaches() CacheParams {
	return CacheParams{L1Bytes: 64 << 10, L1Ways: 2, L2Bytes: 8 << 20, L2Ways: 16}
}

// blockOf converts a byte address to a block number.
func blockOf(addr uint64) uint64 { return addr >> memmap.BlockBits }
