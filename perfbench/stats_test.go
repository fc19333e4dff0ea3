package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{5, 0.5, false},    // a sweep run: too few ops even for the median's tail
		{19, 0.5, false},   // rank 10, 9 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{99, 0.9, false},   // rank 90, 9 beyond
		{100, 0.9, true},   // rank 90, 10 beyond
		{2075, 0.9, true},  // a query run
		{999, 0.99, false}, // rank 990, 9 beyond
		{1000, 0.99, true},
	}
	for _, c := range cases {
		if got := tailReportable(c.n, c.q); got != c.want {
			t.Errorf("tailReportable(%d, %v) = %v (beyond=%d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its input in place")
	}
}

func TestReferenceMismatchCountsAsFailedOp(t *testing.T) {
	want := &server.SessionResult{Header: trace.Header{Misses: 3, CPUs: 4}, Window: 3, MedianStreamLen: math.NaN(), WindowDigest: 7}
	same := *want
	diff := *want
	diff.WindowDigest = 8

	var l opLog
	l.record(2*time.Millisecond, check("same", &same, want))
	l.record(3*time.Millisecond, check("digest", &diff, want))
	l.record(4*time.Millisecond, errors.New("dial refused"))
	if l.attempted != 3 || l.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 2", l.attempted, l.failed)
	}
	if len(l.latMs) != 1 || l.latMs[0] != 2 {
		t.Fatalf("timed latencies %v, want only the matching op's 2ms", l.latMs)
	}
	if l.firstErr == nil {
		t.Fatal("the mismatch was not kept as the first error")
	}
}

func TestEndToEndDividesTimesByHostFactor(t *testing.T) {
	// One set-up, two stretches of two ops each; a sample follows each.
	setups := []stretch{{wall: 4 * time.Second, after: 1}}
	p := &phase{
		records:    1000,
		heapPeakMB: 5,
		stretches: []stretch{
			{wall: time.Second, cpu: 1500 * time.Millisecond, after: 2},
			{wall: time.Second, cpu: 1500 * time.Millisecond, after: 3},
		},
	}
	ops := &opLog{latMs: []float64{10, 20, 30, 40}, after: []int{2, 2, 3, 3}}
	nominal := &hostSpeed{ms: []float64{kernelNominalMs, kernelNominalMs, kernelNominalMs, kernelNominalMs}}
	slow := &hostSpeed{ms: []float64{2 * kernelNominalMs, 2 * kernelNominalMs, 2 * kernelNominalMs, 2 * kernelNominalMs}}
	raw, halved := endToEnd(setups, p, ops, nominal), endToEnd(setups, p, ops, slow)
	want := map[string]float64{"setup_s": 4, "records_per_s": 500, "op_p50_ms": 20, "op_p90_ms": 40, "cpu_ns_per_record": 3e6, "heap_peak_mb": 5}
	for name, w := range want {
		if got := raw[name].Value; got != w {
			t.Errorf("%s at the nominal host speed = %v, want %v", name, got, w)
		}
	}
	for name, r := range raw {
		w := r.Value / 2 // a host twice as slow: every time halves
		switch name {
		case "records_per_s":
			w = r.Value * 2
		case "heap_peak_mb":
			w = r.Value
		}
		if got := halved[name].Value; got != w || halved[name].Unit != r.Unit {
			t.Errorf("%s at host factor 2 = %v %s, want %v %s", name, got, halved[name].Unit, w, r.Unit)
		}
	}
}

func TestHostFactorAroundAStretch(t *testing.T) {
	// Samples 0..5; a slow spell covers samples 3 and 4.
	h := &hostSpeed{ms: []float64{40, 40, 40, 80, 80, 40}}
	for _, c := range []struct {
		after int
		want  float64
	}{
		{1, 1}, // samples 0, 1, 2
		{3, 2}, // samples 2, 3, 4: median 80
		{2, 1}, // samples 1, 2, 3: median 40
		{5, 1}, // samples 4, 5: the lower
		{0, 1}, // samples 0, 1
		{9, 1}, // past the end: the last sample
	} {
		if got := h.around(c.after); got != c.want*40/kernelNominalMs {
			t.Errorf("around(%d) = %v, want %v", c.after, got, c.want*40/kernelNominalMs)
		}
	}
}
