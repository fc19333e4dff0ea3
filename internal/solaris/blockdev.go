package solaris

import (
	"repro/internal/engine"
)

// BlockDev models the block device driver path: a ring of reused buf
// structs, a shared device queue, and DMA delivery of the data.
type BlockDev struct {
	k     *Kernel
	queue uint64
	bufs  []uint64
	next  int

	// Stats.
	Reads, Writes uint64
}

func newBlockDev(k *Kernel) *BlockDev {
	d := &BlockDev{k: k, queue: k.AllocBlocks(1)}
	for i := 0; i < k.P.DiskBufs; i++ {
		d.bufs = append(d.bufs, k.AllocBlocks(1))
	}
	return d
}

// DiskRead models reading size bytes from disk into memory at dst: the
// driver issues the request through a recycled buf struct and the device
// DMA-writes the payload, invalidating any cached copies of dst.
func (d *BlockDev) DiskRead(ctx *engine.Ctx, dst, size uint64) {
	k := d.k
	buf := d.bufs[d.next%len(d.bufs)]
	d.next++
	ctx.Call(k.fn.bdevStrategy)
	ctx.Read(buf)
	ctx.Write(buf)
	ctx.Write(d.queue)
	ctx.Ret()
	ctx.DMAWrite(dst, size)
	ctx.Call(k.fn.biodone)
	ctx.Read(buf)
	ctx.Write(buf)
	ctx.Ret()
	d.Reads++
}

// DiskWrite models writing size bytes from src to disk: the device DMA
// *reads* memory, which invalidates nothing; only the driver's buf struct
// and queue are touched.
func (d *BlockDev) DiskWrite(ctx *engine.Ctx, src, size uint64) {
	k := d.k
	buf := d.bufs[d.next%len(d.bufs)]
	d.next++
	ctx.Call(k.fn.bdevStrategy)
	ctx.Read(buf)
	ctx.Write(buf)
	ctx.Write(d.queue)
	ctx.Ret()
	ctx.Call(k.fn.biodone)
	ctx.Read(buf)
	ctx.Write(buf)
	ctx.Ret()
	_ = src
	_ = size
	d.Writes++
}
