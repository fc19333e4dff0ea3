package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// indexSorted is the reference for WeightedSample: the sample kept as two
// arrays, ordered through an index permutation sorted by sort.Slice, with
// both arrays copied out in that order, and the same quantile and CDF
// scans over them.
type indexSorted struct {
	vals, weights []float64
	total         float64
}

func (r *indexSorted) add(v, w float64) {
	r.vals = append(r.vals, v)
	r.weights = append(r.weights, w)
	r.total += w
}

func (r *indexSorted) sort() {
	idx := make([]int, len(r.vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.vals[idx[a]] < r.vals[idx[b]] })
	nv := make([]float64, len(r.vals))
	nw := make([]float64, len(r.vals))
	for i, j := range idx {
		nv[i], nw[i] = r.vals[j], r.weights[j]
	}
	r.vals, r.weights = nv, nw
}

// quantile and cdfAt read the arrays in the order the last sort left.
func (r *indexSorted) quantile(q float64) float64 {
	target := min(max(q, 0), 1) * r.total
	cum := 0.0
	for i, w := range r.weights {
		cum += w
		if cum >= target {
			return r.vals[i]
		}
	}
	return r.vals[len(r.vals)-1]
}

func (r *indexSorted) cdfAt(v float64) float64 {
	cum := 0.0
	for i, val := range r.vals {
		if val > v {
			break
		}
		cum += r.weights[i]
	}
	return cum / r.total
}

// TestWeightedSampleMatchesIndexSort checks the in-place pair sort against
// the index-permutation sort on samples full of ties: a few distinct
// values, weighted by value (as the stream-length distribution is) or by
// other integers, queried at every percentile, at every prefix's share of
// the weight, and around every value, with more observations added
// between rounds of queries.
func TestWeightedSampleMatchesIndexSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		var s WeightedSample
		var ref indexSorted
		byValue := round%2 == 0
		for batch := 0; batch < 3; batch++ {
			for i := 1 + rng.Intn(200); i > 0; i-- {
				v := float64(2 + rng.Intn(12))
				w := v
				if !byValue {
					w = float64(1 + rng.Intn(9))
				}
				s.Add(v, w)
				ref.add(v, w)
			}
			qs := []float64{-0.5, 1.5}
			for p := 0; p <= 100; p++ {
				qs = append(qs, float64(p)/100)
			}
			ref.sort()
			cum := 0.0
			for _, w := range ref.weights {
				cum += w
				qs = append(qs, cum/ref.total)
			}
			for _, q := range qs {
				if got, want := s.Quantile(q), ref.quantile(q); got != want {
					t.Fatalf("round %d batch %d: Quantile(%v) = %v, reference %v", round, batch, q, got, want)
				}
			}
			for v := 0.0; v <= 15; v += 0.5 {
				if got, want := s.CDFAt(v), ref.cdfAt(v); got != want {
					t.Fatalf("round %d batch %d: CDFAt(%v) = %v, reference %v", round, batch, v, got, want)
				}
			}
			if s.Len() != len(ref.vals) || s.Total() != ref.total {
				t.Fatalf("round %d batch %d: Len/Total %d/%v, reference %d/%v", round, batch, s.Len(), s.Total(), len(ref.vals), ref.total)
			}
		}
	}
}

// TestWeightedSampleGrow checks that Grow makes room for exactly the
// observations to come: the Adds after it keep the storage it made.
func TestWeightedSampleGrow(t *testing.T) {
	var s WeightedSample
	s.Add(1, 1)
	s.Grow(100)
	if cap(s.obs) < 101 {
		t.Fatalf("Grow(100) after one Add left capacity %d", cap(s.obs))
	}
	obs := s.obs[:1]
	for i := 0; i < 100; i++ {
		s.Add(float64(i), 1)
	}
	if &s.obs[0] != &obs[0] || s.Len() != 101 || s.Total() != 101 {
		t.Fatalf("Adds within the grown capacity reallocated, or lost observations: len %d total %v", s.Len(), s.Total())
	}
}
