// Package engine executes simulated workloads over a machine model. It is
// a cooperative, deterministic, single-Go-routine execution engine:
// simulated kernel threads (database agents, web server workers, perl
// processes, ...) run one operation at a time on simulated CPUs, yield or
// sleep, and are redispatched by a pluggable Dispatcher - which the Solaris
// kernel model implements with its per-CPU dispatch queues, so that
// scheduling itself generates the memory traffic the paper attributes to
// disp_getwork/disp_getbest (Section 2.1, example two).
package engine

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Outcome says why a thread returned from Step.
type Outcome uint8

const (
	// Yield: the quantum ended; the thread remains runnable and goes back
	// to a dispatch queue.
	Yield Outcome = iota
	// Sleep: the thread blocks (I/O, client think time, condition wait)
	// and wakes after SleepTicks engine ticks.
	Sleep
	// Continue: the thread keeps the CPU for another Step without passing
	// through the dispatcher (mid-operation).
	Continue
	// Done: the thread exits.
	Done
)

// Step is the disposition returned by Thread.Step.
type Step struct {
	Outcome    Outcome
	SleepTicks uint64
}

// Thread is a simulated kernel thread. Step performs one unit of work
// (e.g. one transaction, one request stage), emitting memory accesses via
// the Ctx.
type Thread interface {
	Step(ctx *Ctx) Step
}

// TCB is the engine's per-thread control block. The kernel model assigns
// the simulated-memory fields (KAddr, StackBase, CVBucket) when the thread
// is created.
type TCB struct {
	ID       int
	Name     string
	T        Thread
	LastCPU  int
	Priority int
	WakeAt   uint64

	// Simulated kernel object placement, filled in by the kernel model.
	KAddr     uint64 // thread structure (kthread_t) address
	StackBase uint64 // per-thread kernel stack
	CVBucket  int    // sleep-queue bucket

	// WinDepth is the SPARC register-window depth, maintained by
	// Ctx.Call/Ret and consumed by the window-trap hook.
	WinDepth int
}

// Dispatcher chooses what runs where. Implementations emit the memory
// accesses their bookkeeping performs (locks, queue links).
type Dispatcher interface {
	// Enqueue makes t runnable (Solaris setbackdq).
	Enqueue(ctx *Ctx, t *TCB)
	// Dequeue picks a thread for ctx.CPU, possibly stealing from other
	// CPUs' queues (disp_getwork/disp_getbest). Returns nil if none.
	Dequeue(ctx *Ctx) *TCB
	// OnIdle is called when Dequeue found nothing.
	OnIdle(ctx *Ctx)
}

// SleepHooks observe threads blocking and waking (Solaris condition
// variables and sleep queues).
type SleepHooks interface {
	OnSleep(ctx *Ctx, t *TCB)
	OnWake(ctx *Ctx, t *TCB)
}

// Engine drives the simulation. Create with New, add threads, then Run.
type Engine struct {
	mem      sim.Machine
	disp     Dispatcher
	hooks    SleepHooks
	ncpu     int
	ctxs     []*Ctx
	cur      []*TCB
	sleepers sleepHeap
	now      uint64
	nextID   int
	live     int
}

// New builds an engine over machine m, which must be one of the two
// machine models (*sim.DSM or *sim.CMP), with dispatcher d. hooks may be
// nil.
func New(m sim.Machine, d Dispatcher, hooks SleepHooks, seed int64) *Engine {
	e := &Engine{
		mem:   m,
		disp:  d,
		hooks: hooks,
		ncpu:  m.CPUs(),
		cur:   make([]*TCB, m.CPUs()),
	}
	for cpu := 0; cpu < e.ncpu; cpu++ {
		ctx := &Ctx{
			CPU:  cpu,
			Eng:  e,
			Rand: rand.New(rand.NewSource(seed + int64(cpu)*7919)),
			mem:  m,
		}
		ctx.InstallVM(nil)
		// The access methods call the concrete machine model directly.
		switch mm := m.(type) {
		case *sim.DSM:
			ctx.dsm = mm
		case *sim.CMP:
			ctx.cmp = mm
		default:
			panic(fmt.Sprintf("engine: unsupported machine %T (want *sim.DSM or *sim.CMP)", m))
		}
		e.ctxs = append(e.ctxs, ctx)
	}
	return e
}

// Now returns the current engine tick.
func (e *Engine) Now() uint64 { return e.now }

// CPUs returns the processor count.
func (e *Engine) CPUs() int { return e.ncpu }

// Ctx returns the per-CPU context (used by setup code that needs to emit
// accesses outside the run loop, e.g. data-structure initialization).
func (e *Engine) Ctx(cpu int) *Ctx { return e.ctxs[cpu] }

// Add registers a new thread and makes it runnable on cpu's queue.
func (e *Engine) Add(t Thread, name string, cpu int) *TCB {
	tcb := &TCB{ID: e.nextID, Name: name, T: t, LastCPU: cpu % e.ncpu}
	e.nextID++
	e.live++
	return tcb
}

// Start enqueues a TCB created by Add (after the kernel model has filled
// in its simulated-memory fields).
func (e *Engine) Start(tcb *TCB) {
	e.disp.Enqueue(e.ctxs[tcb.LastCPU], tcb)
}

// FlushInstr posts every context's accumulated instruction count to the
// machine. Call at phase boundaries (after warm passes) so that
// instruction accounting lines up with trace windows.
func (e *Engine) FlushInstr() {
	for _, ctx := range e.ctxs {
		ctx.flushInstr()
	}
}

// Run executes until done returns true or no threads remain. done is
// polled once per CPU step, so traces stop within one step of the target.
func (e *Engine) Run(done func() bool) {
	defer e.FlushInstr()
	for e.live > 0 && !done() {
		e.now++
		// Timeout wakeups run from the clock interrupt, which one CPU takes
		// per tick (lumpy wakeups create queue imbalance, and with it the
		// work stealing the paper observes in disp_getwork/disp_getbest).
		e.wakeDue(e.ctxs[int(e.now)%e.ncpu])
		for cpu := 0; cpu < e.ncpu; cpu++ {
			if done() {
				return
			}
			ctx := e.ctxs[cpu]
			t := e.cur[cpu]
			if t == nil {
				t = e.disp.Dequeue(ctx)
				if t == nil {
					e.disp.OnIdle(ctx)
					continue
				}
				e.cur[cpu] = t
				t.LastCPU = cpu
			}
			ctx.cur = t
			step := t.T.Step(ctx)
			ctx.flushInstr()
			ctx.cur = nil
			switch step.Outcome {
			case Continue:
				// keep the CPU
			case Yield:
				e.cur[cpu] = nil
				e.disp.Enqueue(ctx, t)
			case Sleep:
				e.cur[cpu] = nil
				ticks := step.SleepTicks
				if ticks == 0 {
					ticks = 1
				}
				t.WakeAt = e.now + ticks
				if e.hooks != nil {
					e.hooks.OnSleep(ctx, t)
				}
				heap.Push(&e.sleepers, t)
			case Done:
				e.cur[cpu] = nil
				e.live--
			}
		}
	}
}

// RunContext executes like Run but additionally stops as soon as ctx is
// cancelled, polling ctx at the same per-CPU-step cadence as done — so a
// cancellation takes effect within one engine step, the same promptness
// the miss-target stop predicates get. It returns ctx's cancellation
// cause when cancellation stopped the run, nil otherwise.
//
// A context that can never be cancelled (ctx.Done() == nil, e.g.
// context.Background()) adds no per-step work at all: the run takes
// exactly Run's path.
func (e *Engine) RunContext(ctx context.Context, done func() bool) error {
	stop := ctx.Done()
	if stop == nil {
		e.Run(done)
		return nil
	}
	cancelled := false
	e.Run(func() bool {
		select {
		case <-stop:
			cancelled = true
			return true
		default:
		}
		return done()
	})
	if cancelled {
		return context.Cause(ctx)
	}
	return nil
}

// wakeDue wakes every sleeper whose time has come, on ctx's CPU (Solaris
// timeouts run from the clock interrupt of whichever CPU takes it).
func (e *Engine) wakeDue(ctx *Ctx) {
	for len(e.sleepers) > 0 && e.sleepers[0].WakeAt <= e.now {
		t := heap.Pop(&e.sleepers).(*TCB)
		if e.hooks != nil {
			e.hooks.OnWake(ctx, t)
		}
		e.disp.Enqueue(ctx, t)
	}
}

// sleepHeap orders sleeping threads by wake time, tie-broken by ID for
// determinism.
type sleepHeap []*TCB

func (h sleepHeap) Len() int { return len(h) }
func (h sleepHeap) Less(i, j int) bool {
	if h[i].WakeAt != h[j].WakeAt {
		return h[i].WakeAt < h[j].WakeAt
	}
	return h[i].ID < h[j].ID
}
func (h sleepHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x interface{}) { *h = append(*h, x.(*TCB)) }
func (h *sleepHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
