package db

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/solaris"
	"repro/internal/trace"
)

// rig assembles a db engine over a tiny machine.
type rig struct {
	as  *memmap.AddressSpace
	st  *trace.SymbolTable
	k   *solaris.Kernel
	d   *Engine
	m   sim.Machine
	eng *engine.Engine
	rng *rand.Rand
}

func newRig(t *testing.T, pages int) *rig {
	t.Helper()
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	kp := solaris.DefaultParams(1)
	kp.KDataBytes = 1 << 20
	k := solaris.NewKernel(as, st, kp)
	p := DefaultParams()
	p.BufferPoolPages = pages
	d := New(k, p)
	return &rig{as: as, st: st, k: k, d: d, rng: rand.New(rand.NewSource(2))}
}

func (r *rig) finish() *engine.Ctx {
	r.k.VM.Finalize()
	r.m = sim.NewCMP(1, sim.CacheParams{L1Bytes: 2048, L2Bytes: 16384, L2Ways: 4}, r.as.Blocks())
	r.eng = engine.New(r.m, r.k.Sched, r.k.Sync, 5)
	r.k.VM.Install(r.eng.Ctx(0))
	return r.eng.Ctx(0)
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	r := newRig(t, 64)
	ctx := r.finish()
	bp := r.d.BP

	a1 := bp.Fetch(ctx, PageID{1, 0})
	if bp.Misses != 1 || bp.Hits != 0 {
		t.Fatalf("first fetch: misses=%d hits=%d", bp.Misses, bp.Hits)
	}
	a2 := bp.Fetch(ctx, PageID{1, 0})
	if a1 != a2 {
		t.Error("refetch moved the page")
	}
	if bp.Hits != 1 {
		t.Errorf("hits = %d, want 1", bp.Hits)
	}
	if !bp.Resident(PageID{1, 0}) {
		t.Error("page not resident after fetch")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	r := newRig(t, 8)
	ctx := r.finish()
	bp := r.d.BP
	// Fetch more pages than frames: early pages must be evicted.
	for i := uint32(0); i < 20; i++ {
		bp.Fetch(ctx, PageID{1, i})
	}
	resident := 0
	for i := uint32(0); i < 20; i++ {
		if bp.Resident(PageID{1, i}) {
			resident++
		}
	}
	if resident != 8 {
		t.Errorf("resident pages = %d, want 8 (pool size)", resident)
	}
	if r.k.Disk.Reads != 20 {
		t.Errorf("disk reads = %d, want 20", r.k.Disk.Reads)
	}
}

func TestBufferPoolDirtyFlush(t *testing.T) {
	r := newRig(t, 2)
	ctx := r.finish()
	bp := r.d.BP
	bp.Fetch(ctx, PageID{1, 0})
	bp.MarkDirty(PageID{1, 0})
	bp.Fetch(ctx, PageID{1, 1})
	bp.Fetch(ctx, PageID{1, 2}) // evicts page 0, which is dirty
	if bp.Flushes != 1 {
		t.Errorf("flushes = %d, want 1", bp.Flushes)
	}
}

func TestBTreeSearchAndScan(t *testing.T) {
	r := newRig(t, 256)
	bt := NewBTree(r.d, 5, 1000, 50, r.rng)
	ctx := r.finish()

	if bt.Leaves() != 20 {
		t.Fatalf("leaves = %d, want 20", bt.Leaves())
	}
	if got := bt.Search(ctx, 0); got != 0 {
		t.Errorf("Search(0) leaf = %d", got)
	}
	if got := bt.Search(ctx, 999); got != 19 {
		t.Errorf("Search(999) leaf = %d", got)
	}
	if got := bt.Search(ctx, 5000); got != 19 {
		t.Errorf("out-of-range search leaf = %d", got)
	}
	var visited []int
	bt.Scan(ctx, 100, 200, func(leaf int) { visited = append(visited, leaf) })
	if len(visited) != 4 {
		t.Fatalf("scan visited %d leaves, want 4 (200 keys / 50 per leaf)", len(visited))
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] != visited[i-1]+1 {
			t.Errorf("scan not following sibling order: %v", visited)
		}
	}
}

func TestBTreeScanRepeatsAddressSequence(t *testing.T) {
	// The motivating example: two overlapping scans must produce the same
	// leaf-page miss address sequence.
	r := newRig(t, 256)
	bt := NewBTree(r.d, 5, 2000, 50, r.rng)
	ctx := r.finish()
	bt.Warm(ctx)

	record := func() []uint64 {
		start := r.m.OffChip().Len()
		bt.Scan(ctx, 500, 500, nil)
		var addrs []uint64
		for _, m := range r.m.OffChip().Misses[start:] {
			addrs = append(addrs, m.Addr)
		}
		return addrs
	}
	_ = record() // first scan faults its footprint into tiny caches
	a := record()
	b := record()
	if len(b) == 0 {
		t.Skip("caches too large to observe repeat misses")
	}
	if len(a) != len(b) {
		t.Fatalf("scan miss counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("miss %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestHeapTable(t *testing.T) {
	r := newRig(t, 128)
	tb := NewTable(r.d, 7, 0, 1000, 128)
	ctx := r.finish()
	if tb.Pages() != 32 { // 32 rows of 128B per 4KB page
		t.Fatalf("pages = %d", tb.Pages())
	}
	tb.RowFetch(ctx, 0)
	tb.RowFetch(ctx, 999)
	tb.RowUpdate(ctx, 500)
	if r.d.Log.Appends == 0 {
		t.Error("row update did not log")
	}
	next := tb.ScanPages(ctx, 0, 10, nil)
	if next != 10 {
		t.Errorf("ScanPages returned %d", next)
	}
	if end := tb.ScanPages(ctx, 30, 10, nil); end != 32 {
		t.Errorf("clamped scan end = %d, want 32", end)
	}
}

func TestLockManager(t *testing.T) {
	r := newRig(t, 16)
	ctx := r.finish()
	lm := r.d.Locks
	h1 := lm.Lock(ctx, 42)
	h2 := lm.Lock(ctx, 43)
	if h1 < 0 || h2 < 0 {
		t.Fatal("lock acquisition failed with free pool")
	}
	lm.Unlock(ctx, h1)
	lm.Unlock(ctx, h2)
	if lm.Acquires != 2 {
		t.Errorf("acquires = %d", lm.Acquires)
	}
	// Exhaust the pool: Lock degrades gracefully.
	var hs []int
	for i := 0; i < r.d.P.LockPoolSize+10; i++ {
		hs = append(hs, lm.Lock(ctx, uint64(i)))
	}
	if hs[len(hs)-1] != -1 {
		t.Error("exhausted pool should return -1 handles")
	}
	lm.Unlock(ctx, -1) // must be a no-op
}

func TestTxnLifecycle(t *testing.T) {
	r := newRig(t, 16)
	ctx := r.finish()
	tt := r.d.Txns
	slots := map[int]bool{}
	for i := 0; i < 5; i++ {
		s := tt.Begin(ctx)
		slots[s] = true
		tt.Commit(ctx, s)
	}
	if tt.Begins != 5 || tt.Commits != 5 {
		t.Errorf("begins/commits = %d/%d", tt.Begins, tt.Commits)
	}
	if len(slots) != 5 {
		t.Errorf("slot reuse too early: %v", slots)
	}
}

func TestLogWraps(t *testing.T) {
	r := newRig(t, 16)
	ctx := r.finish()
	lg := r.d.Log
	for i := 0; i < 100; i++ {
		lg.Append(ctx, 512) // 8 blocks per append over a 256-block buffer
	}
	if lg.Appends != 100 {
		t.Errorf("appends = %d", lg.Appends)
	}
}

func TestPlanInterpret(t *testing.T) {
	r := newRig(t, 16)
	p := r.d.NewPlan("q", 16, r.rng)
	ctx := r.finish()
	if p.Ops() != 16 {
		t.Fatalf("ops = %d", p.Ops())
	}
	before := r.m.OffChip().Len()
	p.Interpret(ctx, 0, 32) // wraps around the op list
	if r.m.OffChip().Len() == before {
		t.Error("interpretation emitted nothing")
	}
}

func TestAgentAndIPC(t *testing.T) {
	r := newRig(t, 16)
	ag := r.d.NewAgent()
	ipc := r.d.NewIPC(1024)
	ctx := r.finish()
	ag.StmtBegin(ctx)
	ipc.ClientSend(ctx, 256)
	ipc.ServerRecv(ctx, 256)
	ipc.ServerReply(ctx, 2048) // clamped to bufBytes
	ipc.ClientRecv(ctx, 2048)
	ag.StmtEnd(ctx)
	if r.m.OffChip().Len() == 0 {
		t.Error("agent/IPC path emitted nothing")
	}
}

func TestLatchPingPongIsCoherence(t *testing.T) {
	// DB latches on a multi-CPU machine must generate coherence misses.
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	kp := solaris.DefaultParams(2)
	k := solaris.NewKernel(as, st, kp)
	d := New(k, DefaultParams())
	latch := d.NewLatch()
	k.VM.Finalize()
	m := sim.NewDSM(2, sim.CacheParams{L1Bytes: 2048, L2Bytes: 16384, L2Ways: 4}, as.Blocks())
	eng := engine.New(m, k.Sched, k.Sync, 7)
	for i := 0; i < 2; i++ {
		k.VM.Install(eng.Ctx(i))
	}
	for i := 0; i < 10; i++ {
		latch.Enter(eng.Ctx(i % 2))
		latch.Exit(eng.Ctx(i % 2))
	}
	coh := m.OffChip().ClassCounts()[trace.Coherence]
	if coh < 8 {
		t.Errorf("latch ping-pong coherence misses = %d, want >= 8", coh)
	}
}
