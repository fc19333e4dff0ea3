package solaris

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/memmap"
)

// VM models the SPARC/Solaris software MMU-fill path: each CPU has small
// I- and D-TLBs; a TLB miss traps into a handler that probes the software
// Translation Storage Buffer (TSB), and on a TSB miss walks a two-level
// page table and refills the TSB. Because the same translations are
// reloaded over and over, the walk's memory accesses repeat - the paper
// finds MMU trap handlers among the largest stream sources in OLTP.
//
// Register-window overflow/underflow traps (eight-register spills to the
// thread stack) are modeled through the engine's window hook.
type VM struct {
	k *Kernel

	tsb     memmap.Region
	tsbMask uint64
	tsbTags []uint64

	pt1, pt2 memmap.Region
	maxVPN   uint64

	dtlb [][]uint64
	itlb [][]uint64

	// Stats.
	TLBMisses, TSBMisses uint64
}

func newVM(k *Kernel) *VM {
	v := &VM{k: k}
	entries := uint64(k.P.TSBEntries)
	v.tsb = k.AS.Alloc("kernel.tsb", entries*8)
	v.tsbMask = entries - 1
	v.tsbTags = make([]uint64, entries)
	for i := 0; i < k.P.CPUs; i++ {
		v.dtlb = append(v.dtlb, make([]uint64, k.P.TLBEntries))
		v.itlb = append(v.itlb, make([]uint64, k.P.TLBEntries))
	}
	return v
}

// Finalize sizes the page tables once all data regions exist. Must be
// called after workload construction and before installation; translating
// an address beyond the covered range panics.
func (v *VM) Finalize() {
	pages := v.k.AS.Pages()
	pages += pages / 4 // slack for the page tables themselves and late allocations
	v.pt2 = v.k.AS.Alloc("kernel.pagetable.l2", pages*8)
	v.pt1 = v.k.AS.Alloc("kernel.pagetable.l1", (pages/512+1)*8)
	v.maxVPN = pages
}

// Install hooks the VM and register-window traps into ctx, handing it the
// CPU's TLB tag arrays so TLB hits resolve inline without entering the
// hook.
func (v *VM) Install(ctx *engine.Ctx) {
	ctx.InstallVM(v.translate)
	ctx.InstallTLB(v.dtlb[ctx.CPU], v.itlb[ctx.CPU])
	ctx.InstallWindows(v.window)
}

// translate implements engine.TranslateFunc.
func (v *VM) translate(ctx *engine.Ctx, addr uint64, instruction bool) {
	vpn := addr >> memmap.PageBits
	tlb := v.dtlb[ctx.CPU]
	h := v.k.fn.dtlbMiss
	if instruction {
		tlb = v.itlb[ctx.CPU]
		h = v.k.fn.itlbMiss
	}
	idx := vpn & uint64(len(tlb)-1)
	if tlb[idx] == vpn+1 {
		return
	}
	// TLB miss trap: probe the TSB.
	v.TLBMisses++
	if v.maxVPN == 0 {
		panic("solaris: VM.Finalize not called before execution")
	}
	if vpn >= v.maxVPN {
		panic(fmt.Sprintf("solaris: translation beyond page tables (vpn %d >= %d)", vpn, v.maxVPN))
	}
	tsbIdx := vpn & v.tsbMask
	ctx.RawRead(v.tsb.Base+tsbIdx*8, h.ID)
	ctx.AddInstr(12)
	if v.tsbTags[tsbIdx] != vpn+1 {
		// TSB miss: fetch the slow handler and walk the page table.
		v.TSBMisses++
		walk := v.k.fn.sfmmuTSBMiss
		if walk.Code.Size > 0 {
			ctx.RawFetch(walk.Code.Base, walk.ID)
		}
		ctx.RawRead(v.pt1.Base+(vpn/512/8)*memmap.BlockSize, walk.ID)
		ctx.RawRead(v.pt2.Base+(vpn/8)*memmap.BlockSize, walk.ID)
		ctx.RawWrite(v.tsb.Base+tsbIdx*8, walk.ID)
		v.tsbTags[tsbIdx] = vpn + 1
		ctx.AddInstr(40)
	}
	tlb[idx] = vpn + 1
}

// window implements engine.WindowFunc: spill/fill eight registers (two
// blocks) to/from the thread's kernel stack.
func (v *VM) window(ctx *engine.Ctx, t *engine.TCB, spill bool) {
	const stackBlocks = 16
	slot := uint64(t.WinDepth/8) % (stackBlocks / 2)
	base := t.StackBase + slot*2*memmap.BlockSize
	if spill {
		f := v.k.fn.winSpill
		ctx.RawWrite(base, f.ID)
		ctx.RawWrite(base+memmap.BlockSize, f.ID)
	} else {
		f := v.k.fn.winFill
		ctx.RawRead(base, f.ID)
		ctx.RawRead(base+memmap.BlockSize, f.ID)
	}
	ctx.AddInstr(8)
}
