// Package solaris is a behavioral model of the Solaris 8 kernel subsystems
// the paper identifies as temporal-stream sources (Table 2): the dispatcher
// with its per-CPU dispatch queues, synchronization primitives with sleep
// queues, the software MMU-trap path (TSB + page tables + register
// windows), system calls, the STREAMS message subsystem, IP packet
// assembly, bulk memory copies (including the non-allocating
// default_copyout family), the kmem slab allocator, and the block device
// driver.
//
// The model does not execute kernel code; it allocates the kernel's data
// structures in the simulated address space and touches them in the same
// orders the real code paths do, attributing every access to a named
// function in the paper's category taxonomy.
package solaris

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/trace"
)

// Params sizes the kernel model. All sizes scale with the workload Scale
// chosen by the assembly layer.
type Params struct {
	CPUs          int
	SleepqBuckets int    // sleep-queue hash buckets
	TSBEntries    int    // translation storage buffer entries (power of two)
	TLBEntries    int    // per-CPU TLB entries (power of two)
	KDataBytes    uint64 // kernel heap for locks, queues, thread structs
	RxRingBufs    int    // network receive-ring buffers (DMA targets)
	RxBufBytes    uint64 // bytes per receive buffer
	MblkBufBytes  uint64 // bytes per STREAMS message buffer
	MblkCount     int    // STREAMS buffer pool size
	DiskBufs      int    // block-device buf structs
}

// DefaultParams returns a small but representative kernel configuration.
func DefaultParams(ncpu int) Params {
	return Params{
		CPUs:          ncpu,
		SleepqBuckets: 64,
		TSBEntries:    1 << 13,
		TLBEntries:    64,
		KDataBytes:    2 << 20,
		RxRingBufs:    32,
		RxBufBytes:    2048,
		MblkBufBytes:  2048,
		MblkCount:     512,
		DiskBufs:      32,
	}
}

// Kernel is the assembled kernel model. Create with NewKernel; install its
// VM and window hooks into every engine Ctx; pass Sched as the engine's
// Dispatcher and Sync as its SleepHooks.
type Kernel struct {
	AS *memmap.AddressSpace
	ST *trace.SymbolTable
	P  Params

	Sched *Scheduler
	Sync  *SyncSystem
	VM    *VM
	Net   *NetStack
	Disk  *BlockDev

	kdata    memmap.Region
	kdataPos uint64

	mblkCache *KmemCache
	sysTable  uint64 // syscall dispatch table block
	ncache    uint64 // directory name cache (8 blocks)

	fn kernelFuncs

	nextThreadID int
	nextProcID   int
}

// NewKernel builds the kernel model, allocating all kernel regions from as
// and registering every kernel function in st.
func NewKernel(as *memmap.AddressSpace, st *trace.SymbolTable, p Params) *Kernel {
	k := &Kernel{AS: as, ST: st, P: p}
	k.kdata = as.Alloc("kernel.kdata", p.KDataBytes)
	k.registerFunctions()

	k.sysTable = k.AllocBlocks(2)
	k.ncache = k.AllocBlocks(8)

	k.Sched = newScheduler(k)
	k.Sync = newSyncSystem(k)
	k.VM = newVM(k)

	k.mblkCache = k.NewKmemCache("streams_mblk", 64+p.MblkBufBytes, p.MblkCount)
	k.Net = newNetStack(k)
	k.Disk = newBlockDev(k)
	return k
}

// AllocBlocks hands out n contiguous cache blocks of kernel heap. The
// kernel heap is sized by Params.KDataBytes; exhausting it is a
// configuration error and panics.
func (k *Kernel) AllocBlocks(n int) uint64 {
	need := uint64(n) * memmap.BlockSize
	if k.kdataPos+need > k.kdata.Size {
		panic(fmt.Sprintf("solaris: kernel heap exhausted (%d of %d bytes used)",
			k.kdataPos, k.kdata.Size))
	}
	addr := k.kdata.Base + k.kdataPos
	k.kdataPos += need
	return addr
}

// kernelFuncs holds the descriptor of every kernel function the model
// calls, resolved once at registration, so a simulated call reads a field
// instead of looking its name up.
type kernelFuncs struct {
	disp, dispGetwork, dispGetbest, dispdeq, dispRatify, setbackdq        trace.Func
	mutexEnter, mutexExit, cvBlock, cvSignal, sleepqInsert, sleepqUnsleep trace.Func
	dtlbMiss, itlbMiss, sfmmuTSBMiss, winSpill, winFill                   trace.Func
	syscallTrap, poll, open, close, read, write, stat, lookuppn           trace.Func
	bcopy, copyin, defaultCopyout                                         trace.Func
	strwrite, strread, putnext, putq, getq, allocb, freeb                 trace.Func
	ipWput, ipInput, tcpOutput                                            trace.Func
	kmemCacheAlloc, kmemCacheFree                                         trace.Func
	bdevStrategy, biodone                                                 trace.Func
}

// registerFunctions registers every kernel function in the symbol table,
// in a fixed order (it fixes FuncIDs and code addresses), and resolves the
// descriptors the model calls.
func (k *Kernel) registerFunctions() {
	reg := func(name string, cat trace.Category, codeBytes uint64) trace.Func {
		return k.ST.Func(k.ST.Register(name, cat, codeBytes))
	}
	f := &k.fn
	// Kernel task scheduler (Section 2.1, example two).
	f.disp = reg("disp", trace.CatScheduler, 256)
	f.dispGetwork = reg("disp_getwork", trace.CatScheduler, 384)
	f.dispGetbest = reg("disp_getbest", trace.CatScheduler, 256)
	f.dispdeq = reg("dispdeq", trace.CatScheduler, 192)
	f.dispRatify = reg("disp_ratify", trace.CatScheduler, 128)
	f.setbackdq = reg("setbackdq", trace.CatScheduler, 256)
	reg("swtch", trace.CatScheduler, 256)
	// Synchronization primitives.
	f.mutexEnter = reg("mutex_enter", trace.CatSync, 128)
	f.mutexExit = reg("mutex_exit", trace.CatSync, 64)
	f.cvBlock = reg("cv_block", trace.CatSync, 256)
	f.cvSignal = reg("cv_signal", trace.CatSync, 128)
	f.sleepqInsert = reg("sleepq_insert", trace.CatSync, 192)
	f.sleepqUnsleep = reg("sleepq_unsleep", trace.CatSync, 192)
	// MMU and trap handlers.
	f.dtlbMiss = reg("dtlb_miss", trace.CatMMUTrap, 128)
	f.itlbMiss = reg("itlb_miss", trace.CatMMUTrap, 128)
	f.sfmmuTSBMiss = reg("sfmmu_tsb_miss", trace.CatMMUTrap, 256)
	f.winSpill = reg("win_spill", trace.CatMMUTrap, 128)
	f.winFill = reg("win_fill", trace.CatMMUTrap, 128)
	// System call implementation.
	f.syscallTrap = reg("syscall_trap", trace.CatSyscall, 192)
	f.poll = reg("poll", trace.CatSyscall, 512)
	f.open = reg("open", trace.CatSyscall, 448)
	f.close = reg("close", trace.CatSyscall, 128)
	f.read = reg("read", trace.CatSyscall, 384)
	f.write = reg("write", trace.CatSyscall, 384)
	f.stat = reg("stat", trace.CatSyscall, 256)
	f.lookuppn = reg("lookuppn", trace.CatSyscall, 384)
	// Bulk copies.
	f.bcopy = reg("bcopy", trace.CatBulkCopy, 192)
	f.copyin = reg("copyin", trace.CatBulkCopy, 128)
	f.defaultCopyout = reg("default_copyout", trace.CatBulkCopy, 192)
	// STREAMS.
	f.strwrite = reg("strwrite", trace.CatSTREAMS, 384)
	f.strread = reg("strread", trace.CatSTREAMS, 384)
	f.putnext = reg("putnext", trace.CatSTREAMS, 128)
	f.putq = reg("putq", trace.CatSTREAMS, 256)
	f.getq = reg("getq", trace.CatSTREAMS, 256)
	f.allocb = reg("allocb", trace.CatSTREAMS, 192)
	f.freeb = reg("freeb", trace.CatSTREAMS, 128)
	// IP packet assembly.
	f.ipWput = reg("ip_wput", trace.CatIPPacket, 512)
	f.ipInput = reg("ip_input", trace.CatIPPacket, 512)
	f.tcpOutput = reg("tcp_output", trace.CatIPPacket, 384)
	// Kernel - other.
	f.kmemCacheAlloc = reg("kmem_cache_alloc", trace.CatKernelOther, 192)
	f.kmemCacheFree = reg("kmem_cache_free", trace.CatKernelOther, 128)
	reg("taskq_dispatch", trace.CatKernelOther, 192)
	reg("callout_schedule", trace.CatKernelOther, 128)
	// Block device driver.
	f.bdevStrategy = reg("bdev_strategy", trace.CatBlockDev, 256)
	f.biodone = reg("biodone", trace.CatBlockDev, 128)
}
