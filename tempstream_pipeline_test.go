package tempstream

import (
	"context"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/prefetch"
)

// pipelineDigest folds a context's analysis window into one FNV-1a
// value — the same digest style the workload golden tests pin the
// simulator's emission with — so a pipelined/serial divergence shows up
// as a single comparable number in the failure message.
func pipelineDigest(c *ContextResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w(uint64(c.Header.Misses))
	w(c.Header.Instructions)
	w(uint64(c.Header.CPUs))
	for _, m := range c.Analysis.Misses {
		w(m.Addr)
		w(uint64(m.Func))
		w(uint64(m.CPU) | uint64(m.Class)<<8 | uint64(m.Supplier)<<16)
	}
	return h.Sum64()
}

// TestPipelinedMatchesSerialAllApps is the kept-trace equivalence
// guard: Runner.Run with KeepTraces, without and with a prefetcher
// (simulation decoupled from analysis over the pipeline's channel,
// prefetch evaluation forked per chunk), must reproduce the serial
// reference field for field — traces, raw results, analyses and
// prefetch counters — for every application. Run under -race in CI,
// this is also the data-race proof for the chunk handoff and the forked
// evaluator.
func TestPipelinedMatchesSerialAllApps(t *testing.T) {
	apps := Apps()
	if testing.Short() {
		apps = apps[:1] // one app keeps -short sweeps fast; CI race runs all
	}
	r := NewRunner()
	for _, app := range apps {
		for _, pf := range []*prefetch.Config{nil, &streamPfCfg} {
			req := equivRequest(app)
			req.KeepTraces, req.Prefetch = true, pf
			exp, err := r.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%v: Run: %v", app, err)
			}
			compareExperiments(t, exp, expectFor(reference(app), req))
		}
	}
}

// TestPipelinedKeepTraces checks the kept traces of the shared
// experiment cache, which crossed the pipeline at the default warm-up, per
// position against the serial reference's — the strictest "pipeline
// reorders nothing" check at the configuration every figure test reads.
func TestPipelinedKeepTraces(t *testing.T) {
	got, want := collect(t, Apache), fullReference(Apache)
	for _, ctx := range Contexts() {
		g, w := got.Context(ctx), want.Context(ctx)
		if g.Trace == nil {
			t.Fatalf("%v: KeepTraces produced no trace", ctx)
		}
		if !reflect.DeepEqual(g.Trace.Misses, w.Trace.Misses) {
			t.Errorf("%v: pipelined trace differs from serial", ctx)
		}
	}
}
