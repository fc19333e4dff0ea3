// scheduler demonstrates the paper's motivating example two: the Solaris
// dispatcher's per-CPU queues. Idle processors scan the other CPUs' queues
// in the same global order (disp_getwork), so the miss sequences over the
// queue locks and heads repeat across processors and form coherence-miss
// temporal streams - the paper measures these at up to 12% of all
// off-chip misses.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/solaris"
	"repro/internal/trace"
)

// burstyThread alternates short bursts of work with sleeps, keeping the
// dispatch queues churning and most CPUs idle-scanning.
type burstyThread struct {
	data uint64
	n    int
}

func (b *burstyThread) Step(ctx *engine.Ctx) engine.Step {
	for i := 0; i < 4; i++ {
		ctx.Read(b.data + uint64(i)*memmap.BlockSize)
	}
	b.n++
	return engine.Step{Outcome: engine.Sleep, SleepTicks: uint64(3 + b.n%5)}
}

func main() {
	const ncpu = 16
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	k := solaris.NewKernel(as, st, solaris.DefaultParams(ncpu))

	// A handful of bursty threads across 16 CPUs: queues are often empty,
	// so processors steal (disp_getwork -> disp_getbest -> dispdeq).
	region := as.Alloc("appdata", 1<<20)
	k.VM.Finalize()
	m := sim.NewDSM(ncpu, sim.CacheParams{L1Bytes: 8 << 10, L2Bytes: 1 << 20, L2Ways: 16}, as.Blocks())
	eng := engine.New(m, k.Sched, k.Sync, 11)
	for i := 0; i < ncpu; i++ {
		k.VM.Install(eng.Ctx(i))
	}
	for i := 0; i < 12; i++ {
		th := &burstyThread{data: region.Base + uint64(i)*4096}
		eng.Start(k.CreateThread(eng, th, "bursty", i%ncpu))
	}

	// The signal context reaches the engine's per-step stop predicate
	// directly: Ctrl-C stops the simulation within one step, the same
	// mechanism the library Runner cancels whole sweeps with.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The predicate re-reads the machine's trace each step: OffChip
	// flushes the machine's gate first, so the count is exact.
	if err := eng.RunContext(ctx, func() bool { return m.OffChip().Len() >= 30000 }); err != nil {
		fmt.Fprintf(os.Stderr, "scheduler: %v (analyzing the partial trace)\n", err)
	}
	off := m.OffChip()

	// Keep only the scheduler-attributed misses and analyze them.
	sched := &trace.Trace{CPUs: ncpu}
	for _, miss := range off.Misses {
		if st.CategoryOf(miss.Func) == trace.CatScheduler {
			sched.Append(miss)
		}
	}
	a := core.Analyze(sched, core.Options{})
	fmt.Printf("total off-chip misses:      %d\n", off.Len())
	fmt.Printf("scheduler misses:           %d (%.1f%%)\n",
		sched.Len(), 100*float64(sched.Len())/float64(off.Len()))
	fmt.Printf("dispatches=%d steals=%d idle scans=%d migrations=%d\n",
		k.Sched.Dispatches, k.Sched.Steals, k.Sched.IdleScans, k.Sched.Migrations)
	fmt.Printf("scheduler misses in streams: %.1f%% (median stream %.0f misses)\n",
		100*a.StreamFraction(), a.MedianStreamLength())
	cc := sched.ClassCounts()
	fmt.Printf("scheduler miss classes:      coherence %.1f%%, replacement %.1f%%\n",
		100*float64(cc[trace.Coherence])/float64(sched.Len()),
		100*float64(cc[trace.Replacement])/float64(sched.Len()))
}
