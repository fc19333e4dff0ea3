package solaris

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/memmap"
)

// KmemCache models a Solaris slab-allocator object cache: a freelist of
// fixed-size objects carved from a dedicated region. Freed objects are
// reused LIFO, so allocation-heavy kernel paths (STREAMS message blocks,
// buf structs) revisit the same addresses - one of the mechanisms behind
// miss-sequence repetition.
type KmemCache struct {
	k         *Kernel
	name      string
	hdr       uint64
	objBytes  uint64
	region    memmap.Region
	pos       uint64
	free      []uint64
	Allocs    uint64
	Frees     uint64
	HighWater int
}

// NewKmemCache creates an object cache holding up to capacity objects of
// objBytes each (rounded up to whole blocks).
func (k *Kernel) NewKmemCache(name string, objBytes uint64, capacity int) *KmemCache {
	objBytes = (objBytes + memmap.BlockSize - 1) &^ uint64(memmap.BlockSize-1)
	return &KmemCache{
		k:        k,
		name:     name,
		hdr:      k.AllocBlocks(1),
		objBytes: objBytes,
		region:   k.AS.Alloc("kmem."+name, objBytes*uint64(capacity)),
	}
}

// ObjBytes returns the rounded object size.
func (c *KmemCache) ObjBytes() uint64 { return c.objBytes }

// Alloc takes an object from the cache (kmem_cache_alloc).
func (c *KmemCache) Alloc(ctx *engine.Ctx) uint64 {
	ctx.Call(c.k.fn.kmemCacheAlloc)
	defer ctx.Ret()
	ctx.Read(c.hdr)
	c.Allocs++
	if n := len(c.free); n > 0 {
		addr := c.free[n-1]
		c.free = c.free[:n-1]
		ctx.Write(c.hdr)
		ctx.Read(addr)
		return addr
	}
	if c.pos+c.objBytes > c.region.Size {
		panic(fmt.Sprintf("solaris: kmem cache %q exhausted (%d objects)", c.name, c.pos/c.objBytes))
	}
	addr := c.region.Base + c.pos
	c.pos += c.objBytes
	if live := int(c.pos/c.objBytes) - len(c.free); live > c.HighWater {
		c.HighWater = live
	}
	ctx.Write(c.hdr)
	ctx.Write(addr)
	return addr
}

// Free returns an object to the cache (kmem_cache_free).
func (c *KmemCache) Free(ctx *engine.Ctx, addr uint64) {
	ctx.Call(c.k.fn.kmemCacheFree)
	ctx.Write(addr)
	ctx.Write(c.hdr)
	c.free = append(c.free, addr)
	c.Frees++
	ctx.Ret()
}
