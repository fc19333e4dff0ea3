package solaris

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rig builds a kernel over a tiny CMP machine with an engine.
type rig struct {
	as  *memmap.AddressSpace
	st  *trace.SymbolTable
	k   *Kernel
	m   sim.Machine
	eng *engine.Engine
}

func newRig(t *testing.T, ncpu int) *rig {
	t.Helper()
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	p := DefaultParams(ncpu)
	p.KDataBytes = 1 << 20
	k := NewKernel(as, st, p)
	// Reserve generous space for test-allocated regions before finalize.
	return &rig{as: as, st: st, k: k}
}

// finish sizes page tables and builds machine+engine (call after all
// allocations).
func (r *rig) finish(ncpu int) {
	r.k.VM.Finalize()
	r.m = sim.NewCMP(ncpu, sim.CacheParams{L1Bytes: 2048, L2Bytes: 16384, L2Ways: 4}, r.as.Blocks())
	r.eng = engine.New(r.m, r.k.Sched, r.k.Sync, 3)
	for i := 0; i < ncpu; i++ {
		r.k.VM.Install(r.eng.Ctx(i))
	}
}

func TestKernelFunctionsRegistered(t *testing.T) {
	r := newRig(t, 2)
	for _, name := range []string{"disp_getwork", "disp_getbest", "dispdeq", "disp_ratify",
		"mutex_enter", "cv_block", "dtlb_miss", "sfmmu_tsb_miss", "default_copyout",
		"strwrite", "getq", "ip_wput", "kmem_cache_alloc", "bdev_strategy", "poll"} {
		id, ok := r.k.ST.Lookup(name)
		if !ok {
			t.Errorf("%s not registered", name)
		} else if r.k.ST.CategoryOf(id) == trace.CatUnknown {
			t.Errorf("%s registered without category", name)
		}
	}
	// Every descriptor the model calls was resolved at registration: it is
	// the symbol table's entry for a registered function.
	fns := reflect.ValueOf(r.k.fn)
	for i := 0; i < fns.NumField(); i++ {
		id := trace.FuncID(fns.Field(i).FieldByName("ID").Uint())
		name := fns.Field(i).FieldByName("Name").String()
		if id == 0 || r.k.ST.Func(id).Name != name {
			t.Errorf("kernel descriptor %s = %d %q not resolved", fns.Type().Field(i).Name, id, name)
		}
	}
}

func TestMutexEmitsLockAccesses(t *testing.T) {
	r := newRig(t, 1)
	mu := r.k.NewMutex()
	r.finish(1)
	ctx := r.eng.Ctx(0)
	before := r.m.OffChip().Len()
	mu.Enter(ctx)
	mu.Exit(ctx)
	if r.m.OffChip().Len() == before {
		t.Error("mutex operations emitted no accesses")
	}
}

func TestSchedulerEnqueueDequeue(t *testing.T) {
	r := newRig(t, 2)
	r.finish(2)
	tcb := r.k.CreateThread(r.eng, nil, "x", 0)
	ctx := r.eng.Ctx(0)
	r.k.Sched.Enqueue(ctx, tcb)
	if r.k.Sched.Runnable() != 1 {
		t.Fatal("enqueue did not queue")
	}
	got := r.k.Sched.Dequeue(ctx)
	if got != tcb {
		t.Fatal("dequeue returned wrong thread")
	}
	if r.k.Sched.Runnable() != 0 {
		t.Fatal("queue not empty after dequeue")
	}
}

func TestSchedulerStealing(t *testing.T) {
	r := newRig(t, 4)
	r.finish(4)
	// Enqueue on CPU 2's queue; CPU 0 must steal it.
	tcb := r.k.CreateThread(r.eng, nil, "steal-me", 2)
	tcb.LastCPU = 2
	r.k.Sched.Enqueue(r.eng.Ctx(2), tcb)
	got := r.k.Sched.Dequeue(r.eng.Ctx(0))
	if got != tcb {
		t.Fatal("steal failed")
	}
	if r.k.Sched.Steals != 1 {
		t.Errorf("Steals = %d, want 1", r.k.Sched.Steals)
	}
}

func TestSleepQueues(t *testing.T) {
	r := newRig(t, 2)
	r.finish(2)
	ctx := r.eng.Ctx(0)
	t1 := r.k.CreateThread(r.eng, nil, "s1", 0)
	t2 := r.k.CreateThread(r.eng, nil, "s2", 0)
	t2.CVBucket = t1.CVBucket // same bucket: wake must traverse past t1
	r.k.Sync.OnSleep(ctx, t1)
	r.k.Sync.OnSleep(ctx, t2)
	r.k.Sync.OnWake(ctx, t2)
	r.k.Sync.OnWake(ctx, t1)
	// No assertion beyond not panicking and emitting accesses.
	if r.m.OffChip().Len() == 0 {
		t.Error("sleep queue operations emitted nothing")
	}
}

func TestVMTranslationFaults(t *testing.T) {
	r := newRig(t, 1)
	data := r.as.Alloc("testdata", 1<<20)
	r.finish(1)
	ctx := r.eng.Ctx(0)
	// Touch many distinct pages: each first touch must TLB-miss; the
	// VM stats must record them.
	for p := uint64(0); p < 100; p++ {
		ctx.Read(data.Base + p*memmap.PageSize)
	}
	if r.k.VM.TLBMisses < 100 {
		t.Errorf("TLB misses = %d, want >= 100", r.k.VM.TLBMisses)
	}
	if r.k.VM.TSBMisses == 0 {
		t.Error("no TSB misses despite cold TSB")
	}
	// Second pass within TLB reach: no new misses for a small window.
	before := r.k.VM.TLBMisses
	ctx.Read(data.Base + 99*memmap.PageSize)
	if r.k.VM.TLBMisses != before {
		t.Error("hot page re-translated")
	}
}

func TestKmemCacheReuse(t *testing.T) {
	r := newRig(t, 1)
	c := r.k.NewKmemCache("test", 128, 8)
	r.finish(1)
	ctx := r.eng.Ctx(0)
	a := c.Alloc(ctx)
	c.Free(ctx, a)
	b := c.Alloc(ctx)
	if a != b {
		t.Errorf("LIFO reuse violated: %#x then %#x", a, b)
	}
	if c.Allocs != 2 || c.Frees != 1 {
		t.Errorf("stats: %d allocs %d frees", c.Allocs, c.Frees)
	}
}

func TestKmemCacheExhaustionPanics(t *testing.T) {
	r := newRig(t, 1)
	c := r.k.NewKmemCache("tiny", 64, 2)
	r.finish(1)
	ctx := r.eng.Ctx(0)
	c.Alloc(ctx)
	c.Alloc(ctx)
	defer func() {
		if recover() == nil {
			t.Error("exhaustion must panic")
		}
	}()
	c.Alloc(ctx)
}

func TestStreamsRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	s := r.k.NewStream(2)
	proc := r.k.NewProcess()
	bufs := r.as.Alloc("userbufs", 8192)
	r.finish(1)
	ctx := r.eng.Ctx(0)

	r.k.StreamWrite(ctx, proc, s, bufs.Base, 1024)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	n := r.k.StreamRead(ctx, proc, s, bufs.Base+4096, 4096)
	if n != 1024 {
		t.Errorf("StreamRead returned %d, want 1024", n)
	}
	if s.Pending() != 0 {
		t.Error("message not consumed")
	}
	// Empty read returns 0.
	if n := r.k.StreamRead(ctx, proc, s, bufs.Base+4096, 4096); n != 0 {
		t.Errorf("empty StreamRead returned %d", n)
	}
}

func TestCopyoutInvalidates(t *testing.T) {
	r := newRig(t, 1)
	src := r.as.Alloc("src", 4096)
	dst := r.as.Alloc("dst", 4096)
	r.finish(1)
	ctx := r.eng.Ctx(0)

	ctx.ReadN(dst.Base, 4096) // reader caches dst
	r.k.Copyout(ctx, src.Base, dst.Base, 4096)
	before := r.m.OffChip().Len()
	ctx.ReadN(dst.Base, 4096)
	misses := r.m.OffChip().Len() - before
	if misses != 64 {
		t.Errorf("reads after copyout missed %d blocks, want 64 (all invalidated)", misses)
	}
	// And they are classified I/O coherence.
	last := r.m.OffChip().Misses[r.m.OffChip().Len()-1]
	if last.Class != trace.IOCoherence {
		t.Errorf("post-copyout class = %v, want IOCoherence", last.Class)
	}
}

func TestDiskReadDMAInvalidates(t *testing.T) {
	r := newRig(t, 1)
	buf := r.as.Alloc("diskbuf", 4096)
	r.finish(1)
	ctx := r.eng.Ctx(0)
	ctx.ReadN(buf.Base, 4096)
	r.k.Disk.DiskRead(ctx, buf.Base, 4096)
	before := r.m.OffChip().Len()
	ctx.ReadN(buf.Base, 4096)
	if misses := r.m.OffChip().Len() - before; misses != 64 {
		t.Errorf("post-DMA reads missed %d blocks, want 64", misses)
	}
	if r.k.Disk.Reads != 1 {
		t.Errorf("disk reads = %d", r.k.Disk.Reads)
	}
}

func TestNetSendReceive(t *testing.T) {
	r := newRig(t, 1)
	s := r.k.NewStream(2)
	proc := r.k.NewProcess()
	bufs := r.as.Alloc("net.user", 16384)
	r.finish(1)
	ctx := r.eng.Ctx(0)

	r.k.Net.Receive(ctx, s, 600)
	if s.Pending() != 1 {
		t.Fatal("received data not queued")
	}
	n := r.k.StreamRead(ctx, proc, s, bufs.Base, 4096)
	if n == 0 {
		t.Fatal("read of received data returned 0")
	}
	r.k.Net.Send(ctx, proc, s, bufs.Base, 3000)
	if r.k.Net.PacketsOut < 3 {
		t.Errorf("3000 bytes must packetize into >= 3 MSS packets, got %d", r.k.Net.PacketsOut)
	}
	if s.Pending() != 0 {
		t.Error("send left messages queued")
	}
}

func TestFileReadThroughCache(t *testing.T) {
	r := newRig(t, 1)
	f := r.k.NewFile("f", 8192)
	proc := r.k.NewProcess()
	buf := r.as.Alloc("fbuf", 8192)
	r.finish(1)
	ctx := r.eng.Ctx(0)

	n := r.k.ReadFile(ctx, proc, f, 0, 8192, buf.Base)
	if n != 8192 {
		t.Errorf("ReadFile = %d, want 8192", n)
	}
	reads := r.k.Disk.Reads
	// Second read: page cache resident, no disk I/O.
	r.k.ReadFile(ctx, proc, f, 0, 4096, buf.Base)
	if r.k.Disk.Reads != reads {
		t.Error("resident file re-read hit the disk")
	}
	f.EvictCache()
	r.k.ReadFile(ctx, proc, f, 0, 4096, buf.Base)
	if r.k.Disk.Reads != reads+1 {
		t.Error("evicted file did not re-read from disk")
	}
	// Out-of-range read returns 0.
	if n := r.k.ReadFile(ctx, proc, f, 10000, 100, buf.Base); n != 0 {
		t.Errorf("out-of-range read = %d", n)
	}
}

func TestSyscallsEmitAccesses(t *testing.T) {
	r := newRig(t, 1)
	f := r.k.NewFile("g", 4096)
	proc := r.k.NewProcess()
	r.finish(1)
	ctx := r.eng.Ctx(0)
	before := r.m.OffChip().Len()
	r.k.Poll(ctx, proc, []*File{f})
	r.k.Open(ctx, proc, f)
	r.k.Stat(ctx, proc, f)
	r.k.Close(ctx, proc)
	if r.m.OffChip().Len() == before {
		t.Error("syscalls emitted nothing")
	}
}
