package engine_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/solaris"
	"repro/internal/trace"
)

// vmWorld is a machine with the Solaris VM installed on every CPU, and a
// data region and functions whose code straddles pages.
type vmWorld struct {
	m     sim.Machine
	k     *solaris.Kernel
	eng   *engine.Engine
	data  memmap.Region
	funcs []trace.Func
}

// newVMWorld builds the same world every time for the same machine: a
// TLB and TSB small enough that the runs' pages miss in both.
func newVMWorld(multiChip bool) *vmWorld {
	const cpus = 4
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	p := solaris.DefaultParams(cpus)
	p.KDataBytes = 1 << 20
	p.TLBEntries, p.TSBEntries = 16, 64
	k := solaris.NewKernel(as, st, p)
	w := &vmWorld{k: k, data: as.Alloc("data", 96*memmap.PageSize)}
	for i, size := range []uint64{64, 200, 4096, 3*memmap.PageSize + 640, 9000} {
		id := st.Register("f"+string(rune('a'+i)), trace.CatKernelOther, size)
		w.funcs = append(w.funcs, st.Func(id))
	}
	k.VM.Finalize()
	caches := sim.CacheParams{L1Bytes: 2048, L2Bytes: 32 << 10, L2Ways: 16}
	if multiChip {
		w.m = sim.NewDSM(cpus, caches, as.Blocks())
	} else {
		w.m = sim.NewCMP(cpus, caches, as.Blocks())
	}
	w.eng = engine.New(w.m, k.Sched, k.Sync, 5)
	for cpu := range cpus {
		k.VM.Install(w.eng.Ctx(cpu))
	}
	return w
}

// TestRunsMatchPerBlockUnderVM checks that Call, ReadN and WriteN, which
// check the TLB once per page and hand the machine each page's blocks as
// one run, emit exactly what a per-block reference emits — one
// translated single access per block — with the Solaris VM's TLB and
// TSB refills in between: the same records, the same instruction count,
// and the same TLB and TSB misses.
func TestRunsMatchPerBlockUnderVM(t *testing.T) {
	for _, multiChip := range []bool{true, false} {
		runs, ref := newVMWorld(multiChip), newVMWorld(multiChip)
		rng := rand.New(rand.NewSource(20261019))
		for range 3000 {
			cpu := rng.Intn(4)
			rc, pc := runs.eng.Ctx(cpu), ref.eng.Ctx(cpu)
			f := runs.funcs[rng.Intn(len(runs.funcs))]
			addr := runs.data.Base + uint64(rng.Int63n(int64(runs.data.Size-3*memmap.PageSize)))
			n := uint64(rng.Intn(3 * memmap.PageSize))
			rc.Call(f)
			pc.Call(trace.Func{ID: f.ID}) // the same frame, no code fetched
			for a := f.Code.Base; a < f.Code.End(); a += memmap.BlockSize {
				pc.Call(trace.Func{ID: f.ID, Code: memmap.Region{Base: a, Size: memmap.BlockSize}})
				pc.Ret()
			}
			switch rng.Intn(3) {
			case 0:
				rc.ReadN(addr, n)
				if n > 0 {
					for a := memmap.BlockOf(addr); a < addr+n; a += memmap.BlockSize {
						pc.Read(a)
					}
				}
			case 1:
				rc.WriteN(addr, n)
				if n > 0 {
					for a := memmap.BlockOf(addr); a < addr+n; a += memmap.BlockSize {
						pc.Write(a)
					}
				}
			default:
				rc.Read(addr)
				pc.Read(addr)
			}
			rc.Ret()
			pc.Ret()
		}
		runs.eng.FlushInstr()
		ref.eng.FlushInstr()
		if a, b := runs.m.OffChip(), ref.m.OffChip(); !slices.Equal(a.Misses, b.Misses) || a.Instructions != b.Instructions {
			t.Errorf("multi-chip %v: off-chip trace %d records, %d instructions; per-block %d, %d",
				multiChip, a.Len(), a.Instructions, b.Len(), b.Instructions)
		}
		if a, b := runs.m.IntraChip(), ref.m.IntraChip(); a != nil && !slices.Equal(a.Misses, b.Misses) {
			t.Errorf("multi-chip %v: intra-chip trace %d records, per-block %d", multiChip, a.Len(), b.Len())
		}
		if a, b := runs.k.VM, ref.k.VM; a.TLBMisses != b.TLBMisses || a.TSBMisses != b.TSBMisses || a.TSBMisses == 0 {
			t.Errorf("multi-chip %v: %d TLB and %d TSB misses; per-block %d and %d (want equal, TSB misses > 0)",
				multiChip, a.TLBMisses, a.TSBMisses, b.TLBMisses, b.TSBMisses)
		}
	}
}
