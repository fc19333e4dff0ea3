package workload

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// run executes a small configuration once per (app, machine) and caches
// the result across tests: full runs are the expensive part.
var runCache = map[Config]*Result{}

func run(t *testing.T, app App, m MachineKind) *Result {
	t.Helper()
	cfg := Config{App: app, Machine: m, Scale: Small, Seed: 1, TargetMisses: 15000}
	if r, ok := runCache[cfg]; ok {
		return r
	}
	r := Run(cfg)
	runCache[cfg] = r
	return r
}

func classFrac(tr *trace.Trace, c trace.MissClass) float64 {
	if tr.Len() == 0 {
		return 0
	}
	return float64(tr.ClassCounts()[c]) / float64(tr.Len())
}

func TestDeterminism(t *testing.T) {
	cfg := Config{App: Qry2, Machine: SingleChip, Scale: Small, Seed: 7, TargetMisses: 3000}
	a := Run(cfg)
	b := Run(cfg)
	if a.OffChip.Len() != b.OffChip.Len() || a.OffChip.Instructions != b.OffChip.Instructions {
		t.Fatalf("runs differ: %d/%d vs %d/%d misses/instr",
			a.OffChip.Len(), a.OffChip.Instructions, b.OffChip.Len(), b.OffChip.Instructions)
	}
	for i := range a.OffChip.Misses {
		if a.OffChip.Misses[i] != b.OffChip.Misses[i] {
			t.Fatalf("miss %d differs", i)
		}
	}
}

func TestTracesReachTarget(t *testing.T) {
	for _, app := range Apps() {
		res := run(t, app, MultiChip)
		if res.OffChip.Len() < 15000 {
			t.Errorf("%v multi-chip trace has %d misses, want >= 15000", app, res.OffChip.Len())
		}
		if res.OffChip.Instructions == 0 {
			t.Errorf("%v: no instructions accounted", app)
		}
		if res.IntraChip != nil {
			t.Errorf("%v multi-chip should have no intra-chip trace", app)
		}
	}
}

func TestSingleChipHasNoOffChipCoherence(t *testing.T) {
	// The paper: "There is no (non-I/O) off-chip coherence activity in
	// single-chip."
	for _, app := range Apps() {
		res := run(t, app, SingleChip)
		if n := res.OffChip.ClassCounts()[trace.Coherence]; n != 0 {
			t.Errorf("%v single-chip off-chip coherence misses = %d, want 0", app, n)
		}
		if res.IntraChip == nil || res.IntraChip.Len() == 0 {
			t.Errorf("%v single-chip must produce an intra-chip trace", app)
		}
	}
}

func TestMultiChipCoherenceDominatesOLTPAndWeb(t *testing.T) {
	// Figure 1: up to 80% of off-chip misses are coherence-induced in
	// multi-chip systems for the communication-heavy workloads.
	for _, app := range []App{Apache, Zeus, OLTP} {
		res := run(t, app, MultiChip)
		coh := classFrac(res.OffChip, trace.Coherence)
		if coh < 0.25 {
			t.Errorf("%v multi-chip coherence fraction = %.2f, want >= 0.25", app, coh)
		}
	}
	// And DSS is not coherence-dominated.
	res := run(t, Qry1, MultiChip)
	if coh := classFrac(res.OffChip, trace.Coherence); coh > 0.3 {
		t.Errorf("Qry1 multi-chip coherence fraction = %.2f, want < 0.3", coh)
	}
}

func TestDSSDominatedByCompulsoryAndIO(t *testing.T) {
	// "In the DSS workloads, compulsory misses dominate across contexts"
	// plus substantial I/O coherence from scanned-and-discarded data.
	for _, app := range []App{Qry1, Qry17} {
		for _, m := range []MachineKind{MultiChip, SingleChip} {
			res := run(t, app, m)
			compIO := classFrac(res.OffChip, trace.Compulsory) + classFrac(res.OffChip, trace.IOCoherence)
			if compIO < 0.4 {
				t.Errorf("%v %v compulsory+IO fraction = %.2f, want >= 0.4", app, m, compIO)
			}
		}
	}
}

func TestOLTPSingleChipReplacementHeavy(t *testing.T) {
	res := run(t, OLTP, SingleChip)
	repl := classFrac(res.OffChip, trace.Replacement)
	if repl < 0.3 {
		t.Errorf("OLTP single-chip replacement fraction = %.2f, want >= 0.3", repl)
	}
}

func TestIntraChipHasCoherenceAndPeerSupply(t *testing.T) {
	// Figure 1 right: a substantial fraction of intra-chip misses result
	// from coherence, supplied by the L2 or a peer L1.
	for _, app := range []App{Apache, OLTP} {
		res := run(t, app, SingleChip)
		it := res.IntraChip
		coh := classFrac(it, trace.Coherence)
		if coh < 0.05 {
			t.Errorf("%v intra-chip coherence fraction = %.2f, want >= 0.05", app, coh)
		}
		peer := float64(it.SupplierCounts()[trace.SupplierPeerL1]) / float64(it.Len())
		if peer <= 0 {
			t.Errorf("%v intra-chip has no peer-L1 supplied misses", app)
		}
	}
}

func TestSchedulerActivityPresent(t *testing.T) {
	res := run(t, OLTP, MultiChip)
	k := res.Kernel
	if k.Sched.Dispatches == 0 || k.Sched.Steals == 0 {
		t.Errorf("scheduler inactive: dispatches=%d steals=%d", k.Sched.Dispatches, k.Sched.Steals)
	}
	// Scheduler misses must appear in the trace (the paper: up to 12% of
	// all off-chip misses).
	sched := 0
	for _, m := range res.OffChip.Misses {
		if res.SymTab.CategoryOf(m.Func) == trace.CatScheduler {
			sched++
		}
	}
	if frac := float64(sched) / float64(res.OffChip.Len()); frac < 0.01 {
		t.Errorf("scheduler misses = %.3f of trace, want >= 0.01", frac)
	}
}

func TestWebHasSTREAMSAndPerlActivity(t *testing.T) {
	res := run(t, Apache, MultiChip)
	counts := map[trace.Category]int{}
	for _, m := range res.OffChip.Misses {
		counts[res.SymTab.CategoryOf(m.Func)]++
	}
	for _, c := range []trace.Category{trace.CatSTREAMS, trace.CatIPPacket, trace.CatPerlEngine, trace.CatPerlInput, trace.CatBulkCopy} {
		if counts[c] == 0 {
			t.Errorf("Apache trace has no %v misses", c)
		}
	}
}

func TestDSSBulkCopiesDominant(t *testing.T) {
	// Table 5: half or more of DSS memory activity arises from copies
	// (bulk copies + the I/O infrastructure around them).
	res := run(t, Qry1, SingleChip)
	copies := 0
	for _, m := range res.OffChip.Misses {
		c := res.SymTab.CategoryOf(m.Func)
		if c == trace.CatBulkCopy {
			copies++
		}
	}
	if frac := float64(copies) / float64(res.OffChip.Len()); frac < 0.25 {
		t.Errorf("Qry1 bulk-copy misses = %.2f of trace, want >= 0.25", frac)
	}
}

func TestMPKIOrdering(t *testing.T) {
	// DSS streams data and must show far higher off-chip MPKI than OLTP,
	// whose hot set is cache-resident.
	dss := run(t, Qry1, MultiChip).OffChip.MPKI()
	oltp := run(t, OLTP, MultiChip).OffChip.MPKI()
	if dss <= oltp {
		t.Errorf("MPKI ordering violated: Qry1 %.2f <= OLTP %.2f", dss, oltp)
	}
}

func TestAppMetadata(t *testing.T) {
	if len(Apps()) != int(NumApps) {
		t.Errorf("Apps() returns %d apps", len(Apps()))
	}
	classes := map[string]int{}
	for _, a := range Apps() {
		classes[a.Class()]++
		if a.String() == "invalid app" {
			t.Errorf("app %d unnamed", a)
		}
	}
	if classes["Web"] != 2 || classes["OLTP"] != 1 || classes["DSS"] != 3 {
		t.Errorf("class partition wrong: %v", classes)
	}
	if MultiChip.CPUCount() != 16 || SingleChip.CPUCount() != 4 {
		t.Error("CPU counts must match the paper's system models")
	}
}

// TestRunContextMatchesRun pins the ctx plumbing as pure plumbing: with
// an uncancellable context the run is byte-for-byte Run (which the
// golden digests pin against the seed simulator).
func TestRunContextMatchesRun(t *testing.T) {
	cfg := Config{App: Apache, Machine: SingleChip, Scale: Small, Seed: 4, TargetMisses: 3000}
	want := Run(cfg)
	got, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !reflect.DeepEqual(got.OffChip, want.OffChip) || !reflect.DeepEqual(got.IntraChip, want.IntraChip) {
		t.Errorf("RunContext traces differ from Run")
	}
}

// TestRunContextPreCancelled: a dead context returns before the
// (expensive) construction pass even starts.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RunContext(ctx, Config{App: OLTP, Machine: MultiChip, Scale: Small, Seed: 1, TargetMisses: 1 << 20})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-cancelled RunContext took %v: construction ran anyway", d)
	}
}

// TestRunStreamContextCancelDeliversNoFinish: a stream cancelled
// mid-measurement must never deliver Finish, so consumers can tell a
// dropped stream from a completed one.
func TestRunStreamContextCancelDeliversNoFinish(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancellingSink{cancel: cancel, after: 100}
	res, err := RunStreamContext(ctx, Config{
		App: Apache, Machine: MultiChip, Scale: Small, Seed: 1, TargetMisses: 1 << 20,
	}, sink, nil)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStreamContext = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if sink.finished {
		t.Error("cancelled stream delivered Finish")
	}
	if sink.n < sink.after {
		t.Errorf("sink saw %d records, expected at least %d before cancelling", sink.n, sink.after)
	}
}

// cancellingSink cancels its context after receiving `after` records —
// a consumer dying mid-stream.
type cancellingSink struct {
	cancel   func()
	after    int
	n        int
	finished bool
}

func (c *cancellingSink) AppendBatch(ms []trace.Miss) {
	c.n += len(ms)
	if c.n >= c.after {
		c.cancel()
	}
}

func (c *cancellingSink) Finish(trace.Header) { c.finished = true }
