package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fifoDispatcher is a minimal in-test dispatcher (single global queue).
type fifoDispatcher struct {
	q        []*TCB
	enqueues int
	dequeues int
}

func (d *fifoDispatcher) Enqueue(ctx *Ctx, t *TCB) {
	d.q = append(d.q, t)
	d.enqueues++
}

func (d *fifoDispatcher) Dequeue(ctx *Ctx) *TCB {
	if len(d.q) == 0 {
		return nil
	}
	t := d.q[0]
	d.q = d.q[1:]
	d.dequeues++
	return t
}

func (d *fifoDispatcher) OnIdle(ctx *Ctx) {}

// countingThread runs n steps touching one block per step, then exits.
type countingThread struct {
	steps int
	addr  uint64
	runs  int
	cpus  map[int]bool
}

func (c *countingThread) Step(ctx *Ctx) Step {
	if c.cpus == nil {
		c.cpus = map[int]bool{}
	}
	c.cpus[ctx.CPU] = true
	ctx.Read(c.addr)
	c.runs++
	if c.runs >= c.steps {
		return Step{Outcome: Done}
	}
	if c.runs%3 == 0 {
		return Step{Outcome: Sleep, SleepTicks: 2}
	}
	if c.runs%2 == 0 {
		return Step{Outcome: Yield}
	}
	return Step{Outcome: Continue}
}

func testEngine(ncpu int) (*Engine, *fifoDispatcher, sim.Machine) {
	m := sim.NewCMP(ncpu, sim.CacheParams{L1Bytes: 512, L2Bytes: 4096, L2Ways: 4}, 1<<14)
	d := &fifoDispatcher{}
	e := New(m, d, nil, 42)
	return e, d, m
}

func TestThreadsRunToCompletion(t *testing.T) {
	e, d, _ := testEngine(2)
	threads := make([]*countingThread, 6)
	for i := range threads {
		threads[i] = &countingThread{steps: 10, addr: uint64(0x1000 * (i + 1))}
		tcb := e.Add(threads[i], "t", i)
		e.Start(tcb)
	}
	e.Run(func() bool { return false }) // runs until all Done
	for i, th := range threads {
		if th.runs != 10 {
			t.Errorf("thread %d ran %d steps, want 10", i, th.runs)
		}
	}
	if d.dequeues == 0 || d.enqueues == 0 {
		t.Error("dispatcher was not exercised")
	}
}

func TestSleepersWake(t *testing.T) {
	e, _, _ := testEngine(1)
	th := &countingThread{steps: 9, addr: 0x2000}
	e.Start(e.Add(th, "sleeper", 0))
	e.Run(func() bool { return false })
	if th.runs != 9 {
		t.Errorf("sleeping thread ran %d steps, want 9", th.runs)
	}
}

func TestDoneStopsPromptly(t *testing.T) {
	e, _, m := testEngine(2)
	for i := 0; i < 4; i++ {
		e.Start(e.Add(&countingThread{steps: 1 << 30, addr: uint64(0x4000 * (i + 1))}, "inf", i))
	}
	target := m.OffChip().Len() + 3
	e.Run(func() bool { return m.OffChip().Len() >= target })
	if m.OffChip().Len() > target+64 {
		t.Errorf("overshoot: %d misses vs target %d", m.OffChip().Len(), target)
	}
}

// TestRunContextCancelStops: a cancelled context stops the run within
// one step per CPU and surfaces the cancellation cause; threads that
// would run forever otherwise prove the stop came from the context.
func TestRunContextCancelStops(t *testing.T) {
	e, _, _ := testEngine(2)
	threads := make([]*countingThread, 2)
	for i := range threads {
		threads[i] = &countingThread{steps: 1 << 30, addr: uint64(0x4000 * (i + 1))}
		e.Start(e.Add(threads[i], "inf", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx, func() bool { return false }); err != context.Canceled {
		t.Fatalf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
	for i, th := range threads {
		if th.runs > 1 {
			t.Errorf("thread %d ran %d steps after cancellation, want at most the in-flight one", i, th.runs)
		}
	}
}

// TestRunContextBackgroundMatchesRun: an uncancellable context takes
// Run's exact path — the run completes on the done predicate and
// returns nil.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	e, _, _ := testEngine(1)
	th := &countingThread{steps: 10, addr: 0x2000}
	e.Start(e.Add(th, "t", 0))
	if err := e.RunContext(context.Background(), func() bool { return false }); err != nil {
		t.Fatalf("RunContext = %v, want nil", err)
	}
	if th.runs != 10 {
		t.Errorf("thread ran %d steps, want 10", th.runs)
	}
}

// TestRunContextCause surfaces a WithCancelCause cause instead of the
// generic context.Canceled.
func TestRunContextCause(t *testing.T) {
	e, _, _ := testEngine(1)
	e.Start(e.Add(&countingThread{steps: 1 << 30, addr: 0x8000}, "inf", 0))
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("drain")
	cancel(cause)
	if err := e.RunContext(ctx, func() bool { return false }); err != cause {
		t.Fatalf("RunContext cause = %v, want %v", err, cause)
	}
}

func TestCtxCallStack(t *testing.T) {
	e, _, _ := testEngine(1)
	ctx := e.Ctx(0)
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	f1 := st.Func(st.Register("f1", trace.CatKernelOther, 128))
	f2 := st.Func(st.Register("f2", trace.CatSync, 64))

	if ctx.Fn() != 0 {
		t.Error("empty stack should yield FuncID 0")
	}
	ctx.Call(f1)
	if ctx.Fn() != f1.ID {
		t.Error("Fn() != f1 after Call")
	}
	ctx.Call(f2)
	if ctx.Fn() != f2.ID {
		t.Error("Fn() != f2 after nested Call")
	}
	ctx.Ret()
	if ctx.Fn() != f1.ID {
		t.Error("Fn() != f1 after Ret")
	}
	ctx.Ret()
	if ctx.Fn() != 0 {
		t.Error("stack not empty after final Ret")
	}
}

func TestReadNTouchesEveryBlock(t *testing.T) {
	e, _, m := testEngine(1)
	ctx := e.Ctx(0)
	before := m.OffChip().Len()
	ctx.ReadN(0x10000, 4*memmap.BlockSize)
	got := m.OffChip().Len() - before
	if got != 4 {
		t.Errorf("ReadN(4 blocks) produced %d cold misses, want 4", got)
	}
	// Unaligned spans still cover the partial blocks.
	before = m.OffChip().Len()
	ctx.ReadN(0x20010, 100) // crosses two blocks
	if got := m.OffChip().Len() - before; got != 2 {
		t.Errorf("unaligned ReadN produced %d misses, want 2", got)
	}
	ctx.flushInstr()
}

func TestWindowHookFires(t *testing.T) {
	e, _, _ := testEngine(1)
	ctx := e.Ctx(0)
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	f := st.Func(st.Register("deep", trace.CatKernelOther, 0))

	tcb := e.Add(&countingThread{steps: 1}, "w", 0)
	tcb.StackBase = 0x9000
	ctx.cur = tcb
	spills, fills := 0, 0
	ctx.InstallWindows(func(c *Ctx, tc *TCB, spill bool) {
		if spill {
			spills++
		} else {
			fills++
		}
	})
	for i := 0; i < 20; i++ {
		ctx.Call(f)
	}
	for i := 0; i < 20; i++ {
		ctx.Ret()
	}
	if spills != 2 || fills != 2 {
		t.Errorf("spills=%d fills=%d, want 2 each (depth 20, window 8)", spills, fills)
	}
	ctx.cur = nil
	ctx.flushInstr()
}

func TestVMHookInvokedPerAccess(t *testing.T) {
	e, _, _ := testEngine(1)
	ctx := e.Ctx(0)
	calls := 0
	ctx.InstallVM(func(c *Ctx, addr uint64, instruction bool) { calls++ })
	ctx.Read(0x1000)
	ctx.Write(0x2000)
	ctx.NonAllocStore(0x3000, 64)
	if calls != 3 {
		t.Errorf("translate called %d times, want 3", calls)
	}
	// Raw accesses bypass translation.
	ctx.RawRead(0x4000, 0)
	ctx.RawWrite(0x5000, 0)
	if calls != 3 {
		t.Errorf("raw accesses must not translate (calls=%d)", calls)
	}
	ctx.flushInstr()
}

func TestInstructionAccounting(t *testing.T) {
	e, _, m := testEngine(1)
	ctx := e.Ctx(0)
	ctx.Read(0x100)
	ctx.AddInstr(500)
	before := m.OffChip().Instructions
	e.FlushInstr()
	if m.OffChip().Instructions <= before {
		t.Error("FlushInstr did not post instructions")
	}
}
