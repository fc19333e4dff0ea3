// Package stats provides the small statistical kit used by the analyses:
// geometric-bucket histograms (for the log-scale stream-length CDFs and
// reuse-distance PDFs of Figure 4) and weighted quantiles.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// LogHistogram buckets non-negative values geometrically: bucket i covers
// [Base^i, Base^(i+1)) with a dedicated bucket for zero. Weights are
// float64 so the same type serves both counts and length-weighted mass.
type LogHistogram struct {
	Base    float64
	zero    float64
	buckets []float64
	total   float64
}

// NewLogHistogram returns a histogram with the given geometric base
// (e.g. 10 for decades, 2 for octaves). Base must exceed 1.
func NewLogHistogram(base float64) *LogHistogram {
	if base <= 1 {
		panic("stats: LogHistogram base must be > 1")
	}
	return &LogHistogram{Base: base}
}

// bucketIndex returns the bucket for v (v >= 1).
func (h *LogHistogram) bucketIndex(v float64) int {
	return int(math.Floor(math.Log(v) / math.Log(h.Base)))
}

// Add records value v with weight w.
func (h *LogHistogram) Add(v, w float64) {
	h.total += w
	if v < 1 {
		h.zero += w
		return
	}
	i := h.bucketIndex(v)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i] += w
}

// Total returns the total weight recorded.
func (h *LogHistogram) Total() float64 { return h.total }

// Bucket describes one populated histogram bucket.
type Bucket struct {
	Lo, Hi float64 // [Lo, Hi)
	Weight float64
	Frac   float64 // Weight / Total
	CumLE  float64 // cumulative fraction with value < Hi
}

// Buckets returns all buckets from zero upward, including empty interior
// ones, with fractions and the running CDF.
func (h *LogHistogram) Buckets() []Bucket {
	if h.total == 0 {
		return nil
	}
	out := make([]Bucket, 0, len(h.buckets)+1)
	cum := 0.0
	if h.zero > 0 {
		cum += h.zero
		out = append(out, Bucket{Lo: 0, Hi: 1, Weight: h.zero, Frac: h.zero / h.total, CumLE: cum / h.total})
	}
	for i, w := range h.buckets {
		lo := math.Pow(h.Base, float64(i))
		hi := math.Pow(h.Base, float64(i+1))
		cum += w
		out = append(out, Bucket{Lo: lo, Hi: hi, Weight: w, Frac: w / h.total, CumLE: cum / h.total})
	}
	return out
}

// String renders the histogram for diagnostics.
func (h *LogHistogram) String() string {
	s := ""
	for _, b := range h.Buckets() {
		s += fmt.Sprintf("[%g,%g): %.1f%%\n", b.Lo, b.Hi, b.Frac*100)
	}
	return s
}

// WeightedSample accumulates (value, weight) pairs and answers weighted
// quantile queries; used for the stream-length distribution, where each
// stream occurrence is weighted by its length (its contribution to the
// total misses in streams).
type WeightedSample struct {
	obs    []weighted
	total  float64
	sorted bool
}

// weighted is one observation.
type weighted struct{ v, w float64 }

// Add records one observation.
func (s *WeightedSample) Add(v, w float64) {
	s.obs = append(s.obs, weighted{v, w})
	s.total += w
	s.sorted = false
}

// Grow makes room for n more observations, so Adds up to that count do
// not reallocate.
func (s *WeightedSample) Grow(n int) { s.obs = slices.Grow(s.obs, n) }

// Len returns the number of observations.
func (s *WeightedSample) Len() int { return len(s.obs) }

// Total returns the total weight.
func (s *WeightedSample) Total() float64 { return s.total }

// sort orders the observations by value, in place. Ties may land in any
// order, which moves no quantile when weights are integers: every prefix
// sum is then exact, so a tie group adds the same weight in any order.
func (s *WeightedSample) sort() {
	if s.sorted {
		return
	}
	slices.SortFunc(s.obs, func(a, b weighted) int { return cmp.Compare(a.v, b.v) })
	s.sorted = true
}

// Quantile returns the smallest value v such that at least q of the total
// weight lies at values <= v. q is clamped to [0, 1]. Returns 0 for an
// empty sample.
func (s *WeightedSample) Quantile(q float64) float64 {
	if len(s.obs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.sort()
	target := q * s.total
	cum := 0.0
	for _, o := range s.obs {
		cum += o.w
		if cum >= target {
			return o.v
		}
	}
	return s.obs[len(s.obs)-1].v
}

// CDFAt returns the fraction of weight at values <= v.
func (s *WeightedSample) CDFAt(v float64) float64 {
	if s.total == 0 {
		return 0
	}
	s.sort()
	cum := 0.0
	for _, o := range s.obs {
		if o.v > v {
			break
		}
		cum += o.w
	}
	return cum / s.total
}
