package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/memmap"
	"repro/internal/trace"
)

// Run-equivalence scripts: each op is runOpBytes bytes — kind, cpu,
// first block (two bytes, little-endian), and a length byte that is a
// run's or a DMA write's block count and every record's FuncID.
const (
	runOpBytes = 5
	runCPUs    = 4
	runBlocks  = 8 * memmap.PageSize / memmap.BlockSize // eight pages
)

// runCaches is small enough that runs straddle L1 sets many times over
// and the 16-way L2s evict.
func runCaches() CacheParams {
	return CacheParams{L1Bytes: 512, L2Bytes: 8192, L2Ways: 16}
}

// runMachine is a machine model with the run methods.
type runMachine interface {
	Machine
	ReadRun(cpu int, from, to uint64, fn trace.FuncID)
	FetchRun(cpu int, from, to uint64, fn trace.FuncID)
	WriteRun(cpu int, from, to uint64, fn trace.FuncID)
}

// runSide is one machine of a run-equivalence pair, with the closed
// gates it switches to.
type runSide struct {
	m                      runMachine
	closedOff, closedIntra trace.Gate
	closed                 bool
}

func (s *runSide) setClosed(closed bool) {
	s.closed = closed
	if closed {
		s.m.SetGates(&s.closedOff, &s.closedIntra)
	} else {
		s.m.SetGates(nil, nil)
	}
}

// checkRuns drives script through two identically built machines, one
// taking each run in one call and the other block by block, and
// requires the same records, gate totals, per-block words and cache
// residency. startClosed starts both with closed gates, as the workload
// runner does through construction and warm-up; a toggle op flips them.
func checkRuns(t *testing.T, build func() runMachine, script []byte, startClosed bool) {
	t.Helper()
	runs, blocks := &runSide{m: build()}, &runSide{m: build()}
	runs.setClosed(startClosed)
	blocks.setClosed(startClosed)
	for ; len(script) >= runOpBytes; script = script[runOpBytes:] {
		op := script[:runOpBytes]
		cpu := int(op[1]) % runCPUs
		first := (uint64(op[2]) | uint64(op[3])<<8) % runBlocks
		end := min(first+uint64(op[4]), runBlocks)
		from, to := first<<memmap.BlockBits, end<<memmap.BlockBits
		fn := trace.FuncID(op[4])
		switch op[0] % 9 {
		case 0:
			runs.m.Read(cpu, from, fn)
			blocks.m.Read(cpu, from, fn)
		case 1:
			runs.m.Fetch(cpu, from, fn)
			blocks.m.Fetch(cpu, from, fn)
		case 2:
			runs.m.Write(cpu, from, fn)
			blocks.m.Write(cpu, from, fn)
		case 3:
			runs.m.ReadRun(cpu, from, to, fn)
			for a := from; a < to; a += memmap.BlockSize {
				blocks.m.Read(cpu, a, fn)
			}
		case 4:
			runs.m.FetchRun(cpu, from, to, fn)
			for a := from; a < to; a += memmap.BlockSize {
				blocks.m.Fetch(cpu, a, fn)
			}
		case 5:
			runs.m.WriteRun(cpu, from, to, fn)
			for a := from; a < to; a += memmap.BlockSize {
				blocks.m.Write(cpu, a, fn)
			}
		case 6:
			runs.m.NonAllocStore(cpu, from, fn)
			blocks.m.NonAllocStore(cpu, from, fn)
		case 7:
			runs.m.DMAWrite(from, to-from)
			blocks.m.DMAWrite(from, to-from)
		case 8:
			runs.setClosed(!runs.closed)
			blocks.setClosed(!blocks.closed)
		}
	}

	if a, b := runs.m.OffChip().Misses, blocks.m.OffChip().Misses; !slices.Equal(a, b) {
		t.Fatalf("off-chip records: %d by runs, %d block by block, or they differ", len(a), len(b))
	}
	if ta, tb := runs.m.IntraChip(), blocks.m.IntraChip(); ta != nil && !slices.Equal(ta.Misses, tb.Misses) {
		t.Fatalf("intra-chip records: %d by runs, %d block by block, or they differ", len(ta.Misses), len(tb.Misses))
	}
	if a, b := runs.closedOff.Total(), blocks.closedOff.Total(); a != b {
		t.Fatalf("closed off-chip gate counted %d by runs, %d block by block", a, b)
	}
	if a, b := runs.closedIntra.Total(), blocks.closedIntra.Total(); a != b {
		t.Fatalf("closed intra-chip gate counted %d by runs, %d block by block", a, b)
	}
	switch ra := runs.m.(type) {
	case *DSM:
		rb := blocks.m.(*DSM)
		if a, b := ra.ownOff.Total(), rb.ownOff.Total(); a != b {
			t.Fatalf("off-chip gate counted %d by runs, %d block by block", a, b)
		}
		if !slices.Equal(ra.blocks, rb.blocks) {
			t.Fatal("per-block words differ")
		}
		for cpu := range ra.nodes {
			na, nb := &ra.nodes[cpu], &rb.nodes[cpu]
			checkResidency(t, cpu, "l1i", &na.l1i, &nb.l1i)
			checkResidency(t, cpu, "l1d", &na.l1d, &nb.l1d)
			checkResidency(t, cpu, "l2", &na.l2, &nb.l2)
		}
	case *CMP:
		rb := blocks.m.(*CMP)
		if a, b := ra.ownOff.Total(), rb.ownOff.Total(); a != b {
			t.Fatalf("off-chip gate counted %d by runs, %d block by block", a, b)
		}
		if a, b := ra.ownIntra.Total(), rb.ownIntra.Total(); a != b {
			t.Fatalf("intra-chip gate counted %d by runs, %d block by block", a, b)
		}
		if !slices.Equal(ra.blocks, rb.blocks) {
			t.Fatal("per-block words differ")
		}
		for cpu := range ra.l1d {
			checkResidency(t, cpu, "l1i", &ra.l1i[cpu], &rb.l1i[cpu])
			checkResidency(t, cpu, "l1d", &ra.l1d[cpu], &rb.l1d[cpu])
		}
		checkResidency(t, -1, "l2", ra.l2, rb.l2)
	}
}

// checkResidency requires two caches to hold every block of the script's
// address space alike.
func checkResidency(t *testing.T, cpu int, name string, a, b *cache.Cache) {
	t.Helper()
	for blk := uint64(0); blk < runBlocks; blk++ {
		if ia, ha := a.Probe(blk); ha {
			ib, hb := b.Probe(blk)
			if !hb || a.State(ia) != b.State(ib) {
				t.Fatalf("cpu %d %s: block %d resident in state %v by runs, not alike block by block", cpu, name, blk, a.State(ia))
			}
		} else if b.Contains(blk) {
			t.Fatalf("cpu %d %s: block %d resident block by block only", cpu, name, blk)
		}
	}
}

func buildRunDSM() runMachine { return NewDSM(runCPUs, runCaches(), runBlocks) }
func buildRunCMP() runMachine { return NewCMP(runCPUs, runCaches(), runBlocks) }

// TestMachineRunsMatchPerBlock pins every run method to its per-block
// sequence on both machines, with gates open and closed, over random
// scripts of single accesses, runs straddling set and page boundaries,
// non-allocating stores, DMA writes and gate toggles.
func TestMachineRunsMatchPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for _, m := range []struct {
		name  string
		build func() runMachine
	}{{"DSM", buildRunDSM}, {"CMP", buildRunCMP}} {
		for _, closed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/closed=%v", m.name, closed), func(t *testing.T) {
				for range 10 {
					script := make([]byte, 2000*runOpBytes)
					rng.Read(script)
					checkRuns(t, m.build, script, closed)
				}
			})
		}
	}
}

// FuzzMachineRuns is TestMachineRunsMatchPerBlock over fuzzed scripts.
func FuzzMachineRuns(f *testing.F) {
	f.Add([]byte{3, 0, 60, 0, 10, 4, 1, 0, 0, 80, 5, 2, 62, 0, 5}, false)
	f.Add([]byte{8, 0, 0, 0, 0, 3, 1, 63, 0, 2, 7, 0, 60, 0, 4, 3, 1, 60, 0, 4}, true)
	f.Fuzz(func(t *testing.T, script []byte, closed bool) {
		checkRuns(t, buildRunDSM, script, closed)
		checkRuns(t, buildRunCMP, script, closed)
	})
}
