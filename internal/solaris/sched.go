package solaris

import (
	"repro/internal/engine"
)

// Scheduler models the Solaris per-processor dispatch queues introduced in
// Solaris 2.3 (Section 2.1, example two of the paper): each CPU has its own
// queue protected by its own lock, plus a shared real-time (kpreempt)
// queue. An idle CPU scans the other CPUs' queues *in the same global
// order* looking for work (disp_getwork), removes a stolen thread
// (dispdeq via disp_getbest), and re-checks that nothing better appeared
// (disp_ratify). Because all CPUs scan in the same order and the locks
// live at fixed addresses, these accesses form the highly repetitive
// coherence streams the paper measures at up to 12% of all off-chip misses.
type Scheduler struct {
	k    *Kernel
	ncpu int

	cpuT      []uint64 // cpu_t structures, one block each
	dispLock  []uint64 // per-CPU dispatcher lock blocks
	dispHeads []uint64 // per-CPU dispatch queue head array, one block each
	kpLock    uint64   // shared real-time queue lock
	kpHeads   uint64   // shared real-time queue heads

	runq     [][]*engine.TCB
	enqueues uint64

	// Stats (diagnostics and tests).
	Dispatches, Steals, IdleScans, Migrations uint64
}

func newScheduler(k *Kernel) *Scheduler {
	s := &Scheduler{k: k, ncpu: k.P.CPUs}
	for i := 0; i < s.ncpu; i++ {
		s.cpuT = append(s.cpuT, k.AllocBlocks(2))
		s.dispLock = append(s.dispLock, k.AllocBlocks(1))
		s.dispHeads = append(s.dispHeads, k.AllocBlocks(2))
	}
	s.kpLock = k.AllocBlocks(1)
	s.kpHeads = k.AllocBlocks(1)
	s.runq = make([][]*engine.TCB, s.ncpu)
	return s
}

// Enqueue implements engine.Dispatcher: setbackdq with cpu_choose load
// balancing. Timeshare threads are placed on the least loaded dispatch
// queue (ties broken round-robin), so under load threads migrate between
// CPUs continually - each migration drags the thread's working set across
// the machine, one of the dominant coherence sources in the paper's OLTP
// and web profiles.
func (s *Scheduler) Enqueue(ctx *engine.Ctx, t *engine.TCB) {
	k := s.k
	ctx.Call(k.fn.setbackdq)
	q := t.LastCPU % s.ncpu
	switch {
	case len(s.runq[q]) > 0:
		// Last CPU is backed up: cpu_choose scans for the lightest queue.
		if best := s.chooseCPU(ctx, q); best != q {
			q = best
			t.LastCPU = q
		}
	case ctx.CPU != q && ctx.Rand.Intn(100) < 40:
		// Wakeups frequently land on the CPU that processed them (the
		// clock/waking CPU is cpu_choose's first candidate), migrating the
		// thread and dragging its working set across the machine.
		q = ctx.CPU
		t.LastCPU = q
		s.Migrations++
	}
	ctx.Read(s.cpuT[q])
	ctx.Read(s.dispLock[q])
	ctx.Write(s.dispLock[q]) // acquire disp lock
	ctx.Read(s.dispHeads[q])
	ctx.Write(s.dispHeads[q]) // link into queue
	ctx.Write(t.KAddr)        // t_link
	ctx.Write(s.dispLock[q])  // release
	s.runq[q] = append(s.runq[q], t)
	// Periodic real-time/kpreempt queue activity keeps the shared RT
	// queue's lines migrating (every dispatcher scan reads them).
	s.enqueues++
	if s.enqueues%16 == 0 {
		ctx.Read(s.kpLock)
		ctx.Write(s.kpLock)
		ctx.Write(s.kpHeads)
	}
	ctx.Ret()
}

// chooseCPU scans cpu_t run counts for the least loaded queue, preferring
// the thread's previous CPU only on a tie (weak affinity, as in the
// Solaris timeshare class under load).
func (s *Scheduler) chooseCPU(ctx *engine.Ctx, prev int) int {
	best := prev
	for i := 1; i <= s.ncpu; i++ {
		v := (prev + i) % s.ncpu
		ctx.Read(s.cpuT[v]) // cpu_choose reads disp_nrunnable
		if len(s.runq[v]) < len(s.runq[best]) {
			best = v
		}
	}
	return best
}

// Dequeue implements engine.Dispatcher: check the local queue first, then
// scan every other CPU's queue in global order (work stealing).
func (s *Scheduler) Dequeue(ctx *engine.Ctx) *engine.TCB {
	cpu := ctx.CPU
	k := s.k
	ctx.Call(k.fn.disp)
	defer ctx.Ret()

	ctx.Read(s.cpuT[cpu])
	ctx.Read(s.dispLock[cpu])
	ctx.Read(s.dispHeads[cpu])
	if len(s.runq[cpu]) > 0 {
		ctx.Write(s.dispLock[cpu])
		t := s.popLocal(ctx, cpu)
		ctx.Write(s.dispLock[cpu])
		s.ratify(ctx, cpu)
		s.Dispatches++
		return t
	}

	// Local queue empty: disp_getwork scans the real-time queue and then
	// every CPU in the same global order (0, 1, 2, ...).
	ctx.Call(k.fn.dispGetwork)
	defer ctx.Ret()
	s.IdleScans++
	ctx.Read(s.kpLock)
	ctx.Read(s.kpHeads)
	for v := 0; v < s.ncpu; v++ {
		if v == cpu {
			continue
		}
		ctx.Read(s.cpuT[v])
		ctx.Read(s.dispHeads[v])
		if len(s.runq[v]) == 0 {
			continue
		}
		// Found a victim: disp_getbest locks the remote queue and steals.
		ctx.Call(k.fn.dispGetbest)
		ctx.Read(s.dispLock[v])
		ctx.Write(s.dispLock[v])
		t := s.popLocal(ctx, v)
		ctx.Write(s.dispLock[v])
		ctx.Ret()
		s.ratify(ctx, v)
		s.Steals++
		s.Dispatches++
		return t
	}
	return nil
}

// popLocal removes the front thread from q's run queue (dispdeq).
func (s *Scheduler) popLocal(ctx *engine.Ctx, q int) *engine.TCB {
	ctx.Call(s.k.fn.dispdeq)
	ctx.Read(s.dispHeads[q])
	ctx.Write(s.dispHeads[q])
	t := s.runq[q][0]
	s.runq[q] = s.runq[q][1:]
	ctx.Read(t.KAddr)
	ctx.Write(t.KAddr)
	ctx.Ret()
	return t
}

// ratify re-confirms the choice against the real-time queue and the local
// heads (disp_ratify).
func (s *Scheduler) ratify(ctx *engine.Ctx, q int) {
	ctx.Call(s.k.fn.dispRatify)
	ctx.Read(s.kpHeads)
	ctx.Read(s.dispHeads[q])
	ctx.Ret()
}

// OnIdle implements engine.Dispatcher: the idle loop re-checks its own
// queue cheaply; the expensive cross-CPU scan already happened in Dequeue.
func (s *Scheduler) OnIdle(ctx *engine.Ctx) {
	ctx.Read(s.dispHeads[ctx.CPU])
	ctx.AddInstr(20)
}

// Runnable returns the number of runnable (queued) threads, for tests.
func (s *Scheduler) Runnable() int {
	n := 0
	for _, q := range s.runq {
		n += len(q)
	}
	return n
}
