package solaris

import (
	"repro/internal/engine"
)

// SyncSystem models Solaris synchronization primitives: adaptive mutexes
// (a lock word whose ping-ponging between writers and readers is itself the
// coherence traffic the paper measures) and condition variables backed by
// hashed sleep queues whose waiter lists are traversed on block and wakeup.
type SyncSystem struct {
	k       *Kernel
	buckets []sleepBucket
}

type sleepBucket struct {
	lock    uint64
	head    uint64
	waiters []*engine.TCB
}

func newSyncSystem(k *Kernel) *SyncSystem {
	s := &SyncSystem{k: k}
	for i := 0; i < k.P.SleepqBuckets; i++ {
		s.buckets = append(s.buckets, sleepBucket{
			lock: k.AllocBlocks(1),
			head: k.AllocBlocks(1),
		})
	}
	return s
}

// OnSleep implements engine.SleepHooks: cv_block inserts the thread into
// its sleep-queue bucket, walking the waiter list to the insertion point.
func (s *SyncSystem) OnSleep(ctx *engine.Ctx, t *engine.TCB) {
	k := s.k
	b := &s.buckets[t.CVBucket%len(s.buckets)]
	ctx.Call(k.fn.cvBlock)
	ctx.Call(k.fn.sleepqInsert)
	ctx.Read(b.lock)
	ctx.Write(b.lock)
	ctx.Read(b.head)
	for _, w := range b.waiters {
		ctx.Read(w.KAddr) // priority-ordered insertion scan
	}
	ctx.Write(t.KAddr)
	ctx.Write(b.head)
	ctx.Write(b.lock)
	b.waiters = append(b.waiters, t)
	ctx.Ret()
	ctx.Ret()
}

// OnWake implements engine.SleepHooks: cv_signal/sleepq_unsleep finds the
// thread in its bucket and unlinks it.
func (s *SyncSystem) OnWake(ctx *engine.Ctx, t *engine.TCB) {
	k := s.k
	b := &s.buckets[t.CVBucket%len(s.buckets)]
	ctx.Call(k.fn.cvSignal)
	ctx.Call(k.fn.sleepqUnsleep)
	ctx.Read(b.lock)
	ctx.Write(b.lock)
	ctx.Read(b.head)
	for i, w := range b.waiters {
		ctx.Read(w.KAddr)
		if w == t {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			break
		}
	}
	ctx.Write(t.KAddr)
	ctx.Write(b.head)
	ctx.Write(b.lock)
	ctx.Ret()
	ctx.Ret()
}

// Mutex is a Solaris adaptive mutex: one lock word at a fixed kernel
// address. Because the engine interleaves whole operations, acquisition
// always succeeds; the coherence traffic comes from the lock word's
// migration between CPUs, exactly as in the paper's analysis of lock
// ping-ponging.
type Mutex struct {
	k    *Kernel
	Addr uint64
}

// NewMutex allocates a mutex in kernel space.
func (k *Kernel) NewMutex() *Mutex {
	return &Mutex{k: k, Addr: k.AllocBlocks(1)}
}

// Enter acquires the mutex (read the owner word, then swing it).
func (m *Mutex) Enter(ctx *engine.Ctx) {
	ctx.Call(m.k.fn.mutexEnter)
	ctx.Read(m.Addr)
	ctx.Write(m.Addr)
	ctx.Ret()
}

// Exit releases the mutex.
func (m *Mutex) Exit(ctx *engine.Ctx) {
	ctx.Call(m.k.fn.mutexExit)
	ctx.Write(m.Addr)
	ctx.Ret()
}
