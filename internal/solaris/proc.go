package solaris

import (
	"repro/internal/engine"
	"repro/internal/memmap"
)

// thread stack size in blocks (spill/fill area).
const stackBlocks = 16

// CreateThread registers a workload thread with the engine and places its
// kernel objects (kthread_t, kernel stack, sleep-queue bucket) in kernel
// memory.
func (k *Kernel) CreateThread(e *engine.Engine, th engine.Thread, name string, cpu int) *engine.TCB {
	tcb := e.Add(th, name, cpu)
	tcb.KAddr = k.AllocBlocks(1)
	tcb.StackBase = k.AllocBlocks(stackBlocks)
	tcb.CVBucket = k.nextThreadID % k.P.SleepqBuckets
	k.nextThreadID++
	return tcb
}

// Process models the per-process kernel state touched by system calls.
type Process struct {
	ID      int
	fdTable uint64 // 2 blocks
	pollfd  uint64 // 1 block
}

// NewProcess allocates per-process kernel structures.
func (k *Kernel) NewProcess() *Process {
	p := &Process{
		ID:      k.nextProcID,
		fdTable: k.AllocBlocks(2),
		pollfd:  k.AllocBlocks(8),
	}
	k.nextProcID++
	return p
}

// File models an open file: a vnode, a name-cache slot, and (for regular
// files) a cached-content region behaving like the page cache.
type File struct {
	vnode    uint64
	data     memmap.Region
	resident bool
}

// NewFile creates a regular file of the given cached size.
func (k *Kernel) NewFile(name string, size uint64) *File {
	return &File{
		vnode: k.AllocBlocks(1),
		data:  k.AS.Alloc("file."+name, size),
	}
}

// Size returns the file's cached-content size.
func (f *File) Size() uint64 { return f.data.Size }

// EvictCache marks the file non-resident (page cache pressure), forcing the
// next read through the block device.
func (f *File) EvictCache() { f.resident = false }

// syscallEnter models the common syscall trap path.
func (k *Kernel) syscallEnter(ctx *engine.Ctx, p *Process) {
	ctx.Call(k.fn.syscallTrap)
	ctx.Read(k.sysTable)
	if p != nil {
		ctx.Read(p.fdTable)
	}
}

func (k *Kernel) syscallExit(ctx *engine.Ctx) { ctx.Ret() }

// Poll models poll(2) over the given files: the pollfd array and each
// polled file's vnode are inspected.
func (k *Kernel) Poll(ctx *engine.Ctx, p *Process, files []*File) {
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.poll)
	// Scan the pollfd array (hundreds of descriptors in a busy server).
	for i := uint64(0); i < 8; i++ {
		ctx.Read(p.pollfd + i*memmap.BlockSize)
	}
	for _, f := range files {
		ctx.Read(f.vnode)
	}
	ctx.Write(p.pollfd)
	ctx.Ret()
	k.syscallExit(ctx)
}

// Open models open(2): a name-cache lookup plus fd-table update.
func (k *Kernel) Open(ctx *engine.Ctx, p *Process, f *File) {
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.open)
	ctx.Call(k.fn.lookuppn)
	h := (f.vnode >> memmap.BlockBits) % 8
	ctx.Read(k.ncache + h*memmap.BlockSize)
	ctx.Ret()
	ctx.Read(f.vnode)
	ctx.Write(p.fdTable)
	ctx.Ret()
	k.syscallExit(ctx)
}

// Close models close(2).
func (k *Kernel) Close(ctx *engine.Ctx, p *Process) {
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.close)
	ctx.Write(p.fdTable)
	ctx.Ret()
	k.syscallExit(ctx)
}

// Stat models stat(2).
func (k *Kernel) Stat(ctx *engine.Ctx, p *Process, f *File) {
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.stat)
	ctx.Call(k.fn.lookuppn)
	h := (f.vnode >> memmap.BlockBits) % 8
	ctx.Read(k.ncache + h*memmap.BlockSize)
	ctx.Ret()
	ctx.Read(f.vnode)
	ctx.Ret()
	k.syscallExit(ctx)
}

// ReadFile models read(2) on a regular file: a block-device read (DMA) on
// a page-cache miss, then the kernel-to-user copy via the non-allocating
// default_copyout path.
func (k *Kernel) ReadFile(ctx *engine.Ctx, p *Process, f *File, off, n, userBuf uint64) uint64 {
	if off >= f.data.Size {
		return 0
	}
	if off+n > f.data.Size {
		n = f.data.Size - off
	}
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.read)
	ctx.Read(f.vnode)
	if !f.resident {
		k.Disk.DiskRead(ctx, f.data.Base, f.data.Size)
		f.resident = true
	}
	k.Copyout(ctx, f.data.Base+off, userBuf, n)
	ctx.Ret()
	k.syscallExit(ctx)
	return n
}

// Bcopy models an allocating kernel memory copy (bcopy/memcpy).
func (k *Kernel) Bcopy(ctx *engine.Ctx, src, dst, n uint64) {
	ctx.Call(k.fn.bcopy)
	ctx.ReadN(src, n)
	ctx.WriteN(dst, n)
	ctx.Ret()
}

// Copyin models a user-to-kernel copy (allocating loads and stores).
func (k *Kernel) Copyin(ctx *engine.Ctx, src, dst, n uint64) {
	ctx.Call(k.fn.copyin)
	ctx.ReadN(src, n)
	ctx.WriteN(dst, n)
	ctx.Ret()
}

// Copyout models the default_copyout family: the source is read normally,
// the destination is written with non-allocating block stores, leaving the
// destination blocks invalid in every cache (the paper's I/O-coherence
// source).
func (k *Kernel) Copyout(ctx *engine.Ctx, src, dst, n uint64) {
	ctx.Call(k.fn.defaultCopyout)
	ctx.ReadN(src, n)
	ctx.NonAllocStore(dst, n)
	ctx.Ret()
}
