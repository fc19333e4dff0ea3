package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// binarySearchReuse is the reference reuse pass: for each top-level
// instance whose rule had an earlier one, it counts the misses between
// the earlier instance's end and its start issued by the earlier
// instance's first processor, with two binary searches in that
// processor's position list, built here from the window.
func binarySearchReuse(a *Analysis) map[int]uint64 {
	pos := make([][]int32, a.CPUs)
	for i, m := range a.Misses {
		pos[m.CPU] = append(pos[m.CPU], int32(i))
	}
	last := make(map[int]int)
	dist := make(map[int]uint64)
	for i, inst := range a.Instances {
		if j, ok := last[inst.RuleID]; ok {
			prev := a.Instances[j]
			list := pos[a.Misses[prev.Pos].CPU]
			lo, _ := slices.BinarySearch(list, int32(prev.Pos+prev.Len))
			hi, _ := slices.BinarySearch(list, int32(inst.Pos))
			dist[i] = uint64(hi - lo)
		}
		last[inst.RuleID] = i
	}
	return dist
}

// reuseTrace returns a random cpus-processor trace of n misses built from
// a few motifs that recur between misses that never repeat, each miss
// issued by a random processor. With backToBack, half the motif
// occurrences are followed at once by a second copy, and no miss
// separates consecutive motifs.
func reuseTrace(rng *rand.Rand, cpus, n int, backToBack bool) *trace.Trace {
	motifs := make([][]uint64, 8)
	for m := range motifs {
		motifs[m] = make([]uint64, 2+rng.Intn(11))
		for k := range motifs[m] {
			motifs[m][k] = uint64(rng.Intn(64)) << 6
		}
	}
	tr := &trace.Trace{CPUs: cpus}
	emit := func(addr uint64) {
		tr.Append(trace.Miss{Addr: addr, CPU: uint8(rng.Intn(cpus))})
	}
	unique := uint64(1 << 20)
	for len(tr.Misses) < n {
		if !backToBack {
			for k := rng.Intn(6); k > 0; k-- {
				emit(unique << 6)
				unique++
			}
		}
		m := motifs[rng.Intn(len(motifs))]
		reps := 1
		if backToBack {
			reps += rng.Intn(2)
		}
		for ; reps > 0; reps-- {
			for _, addr := range m {
				emit(addr)
			}
		}
	}
	return tr
}

// TestReuseDistancesMatchBinarySearch checks the finger pass against the
// binary-search reference distance by distance, not only by histogram
// bucket: the histogram is base 10, so an off-by-one distance rarely moves
// a bucket. One Analyzer runs every case in turn, with processor counts
// and rule counts that differ from one analysis to the next. The
// back-to-back traces make most top-level instances start where the one
// before ends, some of them instances of the same rule.
func TestReuseDistancesMatchBinarySearch(t *testing.T) {
	an := NewAnalyzer()
	rng := rand.New(rand.NewSource(41))
	sameRuleAdjacent := 0
	for round := 0; round < 3; round++ {
		for _, cpus := range []int{1, 4, 16} {
			for _, backToBack := range []bool{false, true} {
				name := fmt.Sprintf("round%d/cpus%d/backToBack=%v", round, cpus, backToBack)
				tr := reuseTrace(rng, cpus, 3000+rng.Intn(3000), backToBack)
				opts := Options{ReuseTruncate: uint64(1 + rng.Intn(200))}
				a := an.Analyze(tr, opts)
				want := binarySearchReuse(a)

				got := make(map[int]uint64)
				an.reuseDistances(a, an.g.RuleIDBound(), func(i int, d uint64) {
					if _, dup := got[i]; dup {
						t.Fatalf("%s: instance %d given two distances", name, i)
					}
					got[i] = d
				})
				for i, d := range want {
					if g, ok := got[i]; !ok || g != d {
						t.Fatalf("%s: instance %d %+v: distance %d,%v, want %d", name, i, a.Instances[i], g, ok, d)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d distances, want %d", name, len(got), len(want))
				}

				ref := stats.NewLogHistogram(10)
				nonzero := 0
				for i := range a.Instances {
					d, ok := want[i]
					if !ok {
						continue
					}
					if d > 0 {
						nonzero++
					}
					if d <= opts.ReuseTruncate {
						ref.Add(float64(d), float64(a.Instances[i].Len))
					}
				}
				if !reflect.DeepEqual(a.ReuseDist.Buckets(), ref.Buckets()) {
					t.Fatalf("%s: ReuseDist %v, want %v", name, a.ReuseDist.Buckets(), ref.Buckets())
				}
				if len(want) < 20 || nonzero == 0 {
					t.Fatalf("%s: %d recurring instances, %d at a nonzero distance: the trace exercises too little", name, len(want), nonzero)
				}
				adjacent := 0
				for i := 1; i < len(a.Instances); i++ {
					if prev, inst := a.Instances[i-1], a.Instances[i]; prev.Pos+prev.Len == inst.Pos {
						adjacent++
						if prev.RuleID == inst.RuleID {
							sameRuleAdjacent++
						}
					}
				}
				if backToBack && 2*adjacent < len(a.Instances) {
					t.Fatalf("%s: %d of %d instances start where the one before ends", name, adjacent, len(a.Instances))
				}
			}
		}
	}
	if sameRuleAdjacent == 0 {
		t.Fatal("no instance starts where an instance of its own rule ends")
	}
}
