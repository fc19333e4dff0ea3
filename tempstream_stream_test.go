package tempstream

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// streamPfCfg exercises every bounded structure of the prefetch engine in
// the equivalence sweep.
var streamPfCfg = prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}

// TestStreamingMatchesBatchAllApps is the streaming equivalence guard:
// Runner.Run without kept traces, with and without a prefetcher, must
// reproduce the serial reference field for field — per-context
// headers, every per-miss analysis field, the distribution summaries,
// the raw results, and prefetch.Evaluate's counters over the reference
// traces — for every application, while materializing no trace.
func TestStreamingMatchesBatchAllApps(t *testing.T) {
	apps := Apps()
	if testing.Short() {
		apps = apps[:1] // one app keeps -short sweeps fast; CI race runs all
	}
	r := NewRunner()
	for _, app := range apps {
		for _, pf := range []*prefetch.Config{nil, &streamPfCfg} {
			req := equivRequest(app)
			req.Prefetch = pf
			exp, err := r.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%v: Run: %v", app, err)
			}
			compareExperiments(t, exp, expectFor(reference(app), req))
		}
	}
}

// TestStreamingKeepTraces checks that KeepTraces keeps the whole stream
// even when the analysis window is far shorter: the traces must be the
// serial reference's, record for record, although the analyzer stopped
// reading after the window filled. The window is no second copy: it is
// the kept trace's prefix in storage, with no capacity past its end, so
// an append to the window cannot overwrite the trace.
func TestStreamingKeepTraces(t *testing.T) {
	const window = 4000
	req := equivRequest(Apache)
	req.Analysis.MaxMisses, req.KeepTraces = window, true
	exp, err := NewRunner().Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := reference(Apache)
	for _, ctx := range Contexts() {
		s, b := exp.Context(ctx), ref.Context(ctx)
		if s.Trace == nil {
			t.Fatalf("%v: KeepTraces produced no trace", ctx)
		}
		if a := s.Analysis.Misses; len(a) != window {
			t.Errorf("%v: analysis window %d misses, want %d", ctx, len(a), window)
		} else if &a[0] != &s.Trace.Misses[0] || cap(a) != len(a) {
			t.Errorf("%v: analysis window (capacity %d) is not the kept trace's prefix", ctx, cap(a))
		}
		if !reflect.DeepEqual(s.Trace.Misses, b.Trace.Misses) {
			t.Errorf("%v: materialized streaming trace differs from the serial reference", ctx)
		}
		if s.Trace.Instructions != b.Trace.Instructions || s.Trace.CPUs != b.Trace.CPUs {
			t.Errorf("%v: trace header %d/%d vs %d/%d", ctx,
				s.Trace.Instructions, s.Trace.CPUs, b.Trace.Instructions, b.Trace.CPUs)
		}
		// A kept trace is its one chunk, presized by the miss target, or
		// a longer stream's chunks joined at their final size: it never
		// reserves the intra-chip measurement cap.
		if n, c := len(s.Trace.Misses), cap(s.Trace.Misses); c > 2*max(n, testTarget) {
			t.Errorf("%v: kept trace holds %d misses in capacity %d", ctx, n, c)
		}
	}
}

// streamAllocBytes measures the heap bytes one streaming Run allocates
// end to end.
func streamAllocBytes(target int, analysis core.Options) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewRunner().Run(context.Background(), Request{
		App: OLTP, Scale: Small, Seed: 9, TargetMisses: target, Analysis: analysis,
	})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingBoundedMemory pins the O(window) memory claim at the
// pipeline level: with a fixed analysis window, quadrupling the miss
// target must not proportionally grow the bytes a streaming collection
// allocates — the extra misses stream through gates and a full analyzer
// window without materializing anywhere.
func TestStreamingBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping memory-growth sweep in short mode")
	}
	opts := core.Options{MaxMisses: 4000}
	streamAllocBytes(6000, opts) // warm pools and lazily-grown storage
	base := streamAllocBytes(6000, opts)
	big := streamAllocBytes(4*6000, opts)
	t.Logf("allocated bytes: base(6k)=%d big(24k)=%d ratio=%.2f", base, big, float64(big)/float64(base))
	// A materializing pipeline would scale these bytes with the target
	// (4x the measurement plus 40x intra-chip records). Allow generous
	// headroom for fixed per-run setup noise, but reject linear growth.
	if big > 2*base {
		t.Errorf("streaming allocations grew with trace length: %d -> %d bytes (>2x) for a 4x target", base, big)
	}
}
