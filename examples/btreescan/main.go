// btreescan demonstrates the paper's motivating example one: overlapping
// B+-tree range scans traverse the same sibling-linked leaves in the same
// order, so their miss sequences form temporal streams - even though the
// leaf addresses are scattered and useless to a stride prefetcher.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/solaris"
	"repro/internal/stride"
	"repro/internal/trace"
)

func main() {
	// Build a database engine with a small pool and a 4000-key B+-tree.
	as := memmap.New()
	st := trace.NewSymbolTable(as)
	k := solaris.NewKernel(as, st, solaris.DefaultParams(1))
	p := db.DefaultParams()
	p.BufferPoolPages = 512
	d := db.New(k, p)
	bt := db.NewBTree(d, 1, 4000, 64, rand.New(rand.NewSource(7)))

	k.VM.Finalize()
	// Tiny caches so leaf traversals miss and the streams become visible.
	m := sim.NewCMP(1, sim.CacheParams{L1Bytes: 2048, L2Bytes: 8192, L2Ways: 4}, as.Blocks())
	eng := engine.New(m, k.Sched, k.Sync, 1)
	k.VM.Install(eng.Ctx(0))
	ctx := eng.Ctx(0)

	bt.Warm(ctx) // fault the tree into the pool

	// Three overlapping range scans, like concurrent queries over
	// adjacent key ranges.
	start := m.OffChip().Len()
	bt.Scan(ctx, 1000, 800, nil)
	bt.Scan(ctx, 1100, 800, nil) // overlaps the first scan's leaves
	bt.Scan(ctx, 1000, 900, nil) // overlaps both
	tr := &trace.Trace{Misses: m.OffChip().Misses[start:], CPUs: 1}

	a := core.Analyze(tr, core.Options{})
	nr, ns, rc := a.Fractions()
	fmt.Printf("scan misses: %d\n", len(tr.Misses))
	fmt.Printf("non-repetitive: %5.1f%%   new streams: %5.1f%%   recurring: %5.1f%%\n",
		100*nr, 100*ns, 100*rc)
	fmt.Printf("distinct streams: %d, median stream length: %.0f misses\n",
		a.GrammarRules(), a.MedianStreamLength())

	// Show that a stride prefetcher sees almost nothing: the leaves were
	// placed in shuffled page order.
	det := stride.New(1)
	strided := 0
	for _, miss := range tr.Misses {
		if det.Observe(0, miss.Addr) {
			strided++
		}
	}
	fmt.Printf("stride-predictable misses: %.1f%% (leaf pages are scattered)\n",
		100*float64(strided)/float64(len(tr.Misses)))
}
