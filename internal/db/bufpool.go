package db

import (
	"repro/internal/engine"
	"repro/internal/memmap"
)

// PageID names a database page: a tablespace and a page number.
type PageID struct {
	Space uint32
	Num   uint32
}

// BufferPool models DB2's buffer pool: a region of page frames, a hash
// table from PageID to frame, per-shard latches, clock eviction with a hot
// shared clock hand, and a miss path that reads the page from disk through
// the kernel (DMA into a recycled staging buffer, then a non-allocating
// copyout into the frame - the paper's dominant DSS I/O pattern).
type BufferPool struct {
	d *Engine

	frames   memmap.Region
	descBase uint64
	hashBase uint64
	hashMask uint32
	clock    uint64 // shared clock-hand block
	latches  []*Latch

	index      [][]int32 // frame plus one (0: not resident), by space then page
	frameOwner []PageID
	frameUsed  []bool
	frameDirty []bool
	hand       int

	staging []memmap.Region
	stageIx int

	// Stats.
	Hits, Misses, Flushes uint64
}

func newBufferPool(d *Engine) *BufferPool {
	p := d.P
	bp := &BufferPool{
		d:          d,
		frames:     d.K.AS.Alloc("db.bufferpool", uint64(p.BufferPoolPages)*p.PageBytes),
		descBase:   0,
		hashMask:   uint32(p.HashBuckets - 1),
		frameOwner: make([]PageID, p.BufferPoolPages),
		frameUsed:  make([]bool, p.BufferPoolPages),
		frameDirty: make([]bool, p.BufferPoolPages),
	}
	desc := d.K.AS.Alloc("db.bufferpool.desc", uint64(p.BufferPoolPages)*memmap.BlockSize)
	bp.descBase = desc.Base
	hash := d.K.AS.Alloc("db.bufferpool.hash", uint64(p.HashBuckets)*memmap.BlockSize)
	bp.hashBase = hash.Base
	bp.clock = d.K.AllocBlocks(1)
	for i := 0; i < p.PoolLatches; i++ {
		bp.latches = append(bp.latches, d.NewLatch())
	}
	// Staging buffers: the filesystem page-cache slice the DMA lands in,
	// sized per workload. DSS streams through a wide slice (the paper
	// finds DSS DMA targets rarely reused on trace time-scales, leaving
	// DSS copies mostly non-repetitive); OLTP's random paging recycles a
	// narrow slice, so its copy misses largely recur.
	for i := 0; i < p.StagingPages; i++ {
		bp.staging = append(bp.staging, d.K.AS.Alloc("kernel.fsbuf", p.PageBytes))
	}
	return bp
}

// FrameAddr returns the simulated address of frame f's data.
func (bp *BufferPool) FrameAddr(f int) uint64 {
	return bp.frames.Base + uint64(f)*bp.d.P.PageBytes
}

func (bp *BufferPool) hashOf(pid PageID) uint32 {
	h := pid.Num*2654435761 + pid.Space*40503
	return h & bp.hashMask
}

// frameOf returns the frame holding pid, or -1 when pid is not resident.
func (bp *BufferPool) frameOf(pid PageID) int {
	if int(pid.Space) < len(bp.index) {
		if pages := bp.index[pid.Space]; int(pid.Num) < len(pages) {
			return int(pages[pid.Num]) - 1
		}
	}
	return -1
}

// setFrame records pid's frame (f = -1: not resident), growing the dense
// index as new tablespaces and pages appear. Page numbers are dense from 0
// within a tablespace, so the index stays the size of the pages touched.
func (bp *BufferPool) setFrame(pid PageID, f int) {
	if int(pid.Space) >= len(bp.index) {
		bp.index = append(bp.index, make([][]int32, int(pid.Space)+1-len(bp.index))...)
	}
	pages := bp.index[pid.Space]
	if int(pid.Num) >= len(pages) {
		pages = append(pages, make([]int32, int(pid.Num)+1-len(pages))...)
		bp.index[pid.Space] = pages
	}
	pages[pid.Num] = int32(f + 1)
}

// Resident reports whether pid is in the pool (no accesses emitted).
func (bp *BufferPool) Resident(pid PageID) bool { return bp.frameOf(pid) >= 0 }

// Fetch pins page pid, returning its frame address. A hit probes the hash
// chain and descriptor; a miss additionally runs clock eviction, a
// block-device DMA read into a staging buffer, and a copyout into the
// frame.
func (bp *BufferPool) Fetch(ctx *engine.Ctx, pid PageID) uint64 {
	d := bp.d
	ctx.Call(d.fn.sqlpgFetch)
	defer ctx.Ret()

	h := bp.hashOf(pid)
	ctx.Read(bp.hashBase + uint64(h)*memmap.BlockSize)
	latch := bp.latches[int(h)%len(bp.latches)]
	latch.Enter(ctx)
	defer latch.Exit(ctx)

	if f := bp.frameOf(pid); f >= 0 {
		bp.Hits++
		ctx.Read(bp.descBase + uint64(f)*memmap.BlockSize)
		return bp.FrameAddr(f)
	}

	bp.Misses++
	f := bp.evict(ctx)
	// Read the page from disk: DMA lands in a recycled kernel staging
	// buffer; default_copyout moves it into the frame with non-allocating
	// stores.
	stage := bp.staging[bp.stageIx%len(bp.staging)]
	bp.stageIx++
	d.K.Disk.DiskRead(ctx, stage.Base, d.P.PageBytes)
	d.K.Copyout(ctx, stage.Base, bp.FrameAddr(f), d.P.PageBytes)

	bp.setFrame(pid, f)
	bp.frameOwner[f] = pid
	bp.frameUsed[f] = true
	bp.frameDirty[f] = false
	ctx.Write(bp.descBase + uint64(f)*memmap.BlockSize)
	ctx.Write(bp.hashBase + uint64(h)*memmap.BlockSize)
	return bp.FrameAddr(f)
}

// MarkDirty flags pid's frame for flush-before-evict.
func (bp *BufferPool) MarkDirty(pid PageID) {
	if f := bp.frameOf(pid); f >= 0 {
		bp.frameDirty[f] = true
	}
}

// evict advances the clock hand and frees the frame there, flushing it
// first if dirty. The shared clock-hand block is read-modify-written by
// every evicting agent, making it a coherence hot spot under DSS scans.
func (bp *BufferPool) evict(ctx *engine.Ctx) int {
	d := bp.d
	ctx.Call(d.fn.sqlpgClock)
	defer ctx.Ret()
	ctx.Read(bp.clock)
	ctx.Write(bp.clock)
	f := bp.hand
	bp.hand = (bp.hand + 1) % len(bp.frameOwner)
	if !bp.frameUsed[f] {
		return f
	}
	ctx.Read(bp.descBase + uint64(f)*memmap.BlockSize)
	if bp.frameDirty[f] {
		bp.flush(ctx, f)
	}
	old := bp.frameOwner[f]
	bp.setFrame(old, -1)
	oh := bp.hashOf(old)
	ctx.Write(bp.hashBase + uint64(oh)*memmap.BlockSize)
	bp.frameUsed[f] = false
	return f
}

// flush models writing a dirty page back to disk: the driver reads part of
// the frame (DMA reads do not invalidate) and the descriptor is updated.
func (bp *BufferPool) flush(ctx *engine.Ctx, f int) {
	d := bp.d
	ctx.Call(d.fn.sqlpgFlush)
	base := bp.FrameAddr(f)
	for i := 0; i < 4; i++ {
		ctx.Read(base + uint64(i)*16*memmap.BlockSize)
	}
	ctx.Write(bp.descBase + uint64(f)*memmap.BlockSize)
	bp.frameDirty[f] = false
	bp.Flushes++
	ctx.Ret()
}
