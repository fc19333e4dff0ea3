package workload

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// Golden-trace determinism fixtures: testdata/golden_digests.json holds an
// FNV-1a digest of every (app, machine) trace produced by Run at a fixed
// seed and Small scale, generated before the packed-cache/fused-probe
// simulator rewrite. Any change to simulation behavior — victim selection,
// classification, stop points, instruction accounting — shows up as a
// digest mismatch, so perf PRs prove byte-for-byte trace equivalence by
// leaving this file untouched.
//
// That fixture runs at a short warm-up (goldenWarm), after which only the
// construction pass has filled an L2 in volume. testdata/golden_steady_digests.json
// pins the same twelve runs at the default warm-up, which refills every L2
// in the system, so L2 evictions, the directory updates they make and the
// back-invalidations they cause are all inside the pinned window.
//
// Regenerate (only when a behavior change is intended and reviewed):
//
//	go test ./internal/workload -run 'TestGolden(Trace|Steady)Digests' -update

var updateGolden = flag.Bool("update", false, "rewrite golden trace digests")

const (
	goldenSeed   = 12345
	goldenTarget = 5000
	goldenWarm   = 20000
)

// goldenDigest pins one run's output.
type goldenDigest struct {
	OffChip      string `json:"offchip"`
	OffLen       int    `json:"off_len"`
	IntraChip    string `json:"intrachip,omitempty"`
	IntraLen     int    `json:"intra_len,omitempty"`
	Instructions uint64 `json:"instructions"`
	Footprint    uint64 `json:"footprint"`
}

// fnv1a folds v into h one byte at a time (FNV-1a 64).
func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// digestTrace hashes every field of every miss plus the trace totals.
func digestTrace(tr *trace.Trace) uint64 {
	h := uint64(14695981039346656037)
	h = fnv1a(h, uint64(len(tr.Misses)))
	h = fnv1a(h, tr.Instructions)
	h = fnv1a(h, uint64(tr.CPUs))
	for i := range tr.Misses {
		m := &tr.Misses[i]
		h = fnv1a(h, m.Addr)
		h = fnv1a(h, uint64(m.Func))
		h = fnv1a(h, uint64(m.CPU)|uint64(m.Class)<<8|uint64(m.Supplier)<<16)
	}
	return h
}

func goldenKey(app App, mk MachineKind) string {
	return fmt.Sprintf("%s/%s", app, mk)
}

func runGolden(app App, mk MachineKind, warm int) goldenDigest {
	res := Run(Config{
		App: app, Machine: mk, Scale: Small,
		Seed: goldenSeed, TargetMisses: goldenTarget, WarmMisses: warm,
	})
	g := goldenDigest{
		OffChip:      fmt.Sprintf("%016x", digestTrace(res.OffChip)),
		OffLen:       res.OffChip.Len(),
		Instructions: res.OffChip.Instructions,
		Footprint:    res.Footprint,
	}
	if res.IntraChip != nil {
		g.IntraChip = fmt.Sprintf("%016x", digestTrace(res.IntraChip))
		g.IntraLen = res.IntraChip.Len()
	}
	return g
}

// TestGoldenTraceDigests proves the simulator still produces byte-identical
// traces for every application on both machine organizations.
func TestGoldenTraceDigests(t *testing.T) {
	checkGolden(t, "golden_digests.json", goldenWarm)
}

// TestGoldenSteadyDigests is TestGoldenTraceDigests at the default warm-up
// (WarmMisses 0), where every L2 has been refilled and evicts in steady
// state.
func TestGoldenSteadyDigests(t *testing.T) {
	checkGolden(t, "golden_steady_digests.json", 0)
}

// checkGolden runs all app × machine configurations at the given warm-up
// and compares (or, with -update, rewrites) the digests in testdata/file.
func checkGolden(t *testing.T, file string, warm int) {
	if testing.Short() {
		t.Skip("skipping full golden sweep in short mode")
	}
	path := filepath.Join("testdata", file)

	type job struct {
		app App
		mk  MachineKind
	}
	var jobs []job
	for _, app := range Apps() {
		for _, mk := range []MachineKind{MultiChip, SingleChip} {
			jobs = append(jobs, job{app, mk})
		}
	}

	if *updateGolden {
		got := map[string]goldenDigest{}
		for _, j := range jobs {
			got[goldenKey(j.app, j.mk)] = runGolden(j.app, j.mk, warm)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update to generate): %v", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixtures: %v", err)
	}
	for _, j := range jobs {
		j := j
		t.Run(goldenKey(j.app, j.mk), func(t *testing.T) {
			t.Parallel()
			w, ok := want[goldenKey(j.app, j.mk)]
			if !ok {
				t.Fatalf("no golden digest for %s (run with -update)", goldenKey(j.app, j.mk))
			}
			got := runGolden(j.app, j.mk, warm)
			if got != w {
				t.Errorf("trace digest drifted from golden fixture:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}
