package workload

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/solaris"
	"repro/internal/trace"
)

// collected is one run's result with its streams collected into traces
// and the kernel it simulated.
type collected struct {
	*Result
	off, intra *trace.Trace // intra stays empty on the multi-chip machine
	k          *solaris.Kernel
}

// collect runs cfg with a trace sink for each stream.
func collect(cfg Config) *collected {
	c := &collected{off: &trace.Trace{}, intra: &trace.Trace{}}
	c.Result, c.k, _ = runSinks(context.Background(), cfg, c.off, c.intra)
	return c
}

// run executes a small configuration once per (app, machine) and caches
// the result across tests: full runs are the expensive part.
var runCache = map[Config]*collected{}

func run(t *testing.T, app App, m MachineKind) *collected {
	t.Helper()
	cfg := Config{App: app, Machine: m, Scale: Small, Seed: 1, TargetMisses: 15000}
	if r, ok := runCache[cfg]; ok {
		return r
	}
	r := collect(cfg)
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
	a := collect(cfg).off
	b := collect(cfg).off
	if a.Len() != b.Len() || a.Instructions != b.Instructions {
		t.Fatalf("runs differ: %d/%d vs %d/%d misses/instr",
			a.Len(), a.Instructions, b.Len(), b.Instructions)
	}
	for i := range a.Misses {
		if a.Misses[i] != b.Misses[i] {
			t.Fatalf("miss %d differs", i)
		}
	}
}

func TestTracesReachTarget(t *testing.T) {
	for _, app := range Apps() {
		res := run(t, app, MultiChip)
		if res.off.Len() < 15000 {
			t.Errorf("%v multi-chip trace has %d misses, want >= 15000", app, res.off.Len())
		}
		if res.off.Instructions == 0 {
			t.Errorf("%v: no instructions accounted", app)
		}
		if res.intra.Len() != 0 || res.intra.CPUs != 0 {
			t.Errorf("%v multi-chip should have no intra-chip trace", app)
		}
	}
}

func TestSingleChipHasNoOffChipCoherence(t *testing.T) {
	// The paper: "There is no (non-I/O) off-chip coherence activity in
	// single-chip."
	for _, app := range Apps() {
		res := run(t, app, SingleChip)
		if n := res.off.ClassCounts()[trace.Coherence]; n != 0 {
			t.Errorf("%v single-chip off-chip coherence misses = %d, want 0", app, n)
		}
		if res.intra.Len() == 0 {
			t.Errorf("%v single-chip must produce an intra-chip trace", app)
		}
	}
}

func TestMultiChipCoherenceDominatesOLTPAndWeb(t *testing.T) {
	// Figure 1: up to 80% of off-chip misses are coherence-induced in
	// multi-chip systems for the communication-heavy workloads.
	for _, app := range []App{Apache, Zeus, OLTP} {
		res := run(t, app, MultiChip)
		coh := classFrac(res.off, trace.Coherence)
		if coh < 0.25 {
			t.Errorf("%v multi-chip coherence fraction = %.2f, want >= 0.25", app, coh)
		}
	}
	// And DSS is not coherence-dominated.
	res := run(t, Qry1, MultiChip)
	if coh := classFrac(res.off, trace.Coherence); coh > 0.3 {
		t.Errorf("Qry1 multi-chip coherence fraction = %.2f, want < 0.3", coh)
	}
}

func TestDSSDominatedByCompulsoryAndIO(t *testing.T) {
	// "In the DSS workloads, compulsory misses dominate across contexts"
	// plus substantial I/O coherence from scanned-and-discarded data.
	for _, app := range []App{Qry1, Qry17} {
		for _, m := range []MachineKind{MultiChip, SingleChip} {
			res := run(t, app, m)
			compIO := classFrac(res.off, trace.Compulsory) + classFrac(res.off, trace.IOCoherence)
			if compIO < 0.4 {
				t.Errorf("%v %v compulsory+IO fraction = %.2f, want >= 0.4", app, m, compIO)
			}
		}
	}
}

func TestOLTPSingleChipReplacementHeavy(t *testing.T) {
	res := run(t, OLTP, SingleChip)
	repl := classFrac(res.off, trace.Replacement)
	if repl < 0.3 {
		t.Errorf("OLTP single-chip replacement fraction = %.2f, want >= 0.3", repl)
	}
}

func TestIntraChipHasCoherenceAndPeerSupply(t *testing.T) {
	// Figure 1 right: a substantial fraction of intra-chip misses result
	// from coherence, supplied by the L2 or a peer L1.
	for _, app := range []App{Apache, OLTP} {
		res := run(t, app, SingleChip)
		it := res.intra
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
	k := res.k
	if k.Sched.Dispatches == 0 || k.Sched.Steals == 0 {
		t.Errorf("scheduler inactive: dispatches=%d steals=%d", k.Sched.Dispatches, k.Sched.Steals)
	}
	// Scheduler misses must appear in the trace (the paper: up to 12% of
	// all off-chip misses).
	sched := 0
	for _, m := range res.off.Misses {
		if res.SymTab.CategoryOf(m.Func) == trace.CatScheduler {
			sched++
		}
	}
	if frac := float64(sched) / float64(res.off.Len()); frac < 0.01 {
		t.Errorf("scheduler misses = %.3f of trace, want >= 0.01", frac)
	}
}

func TestWebHasSTREAMSAndPerlActivity(t *testing.T) {
	res := run(t, Apache, MultiChip)
	counts := map[trace.Category]int{}
	for _, m := range res.off.Misses {
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
	for _, m := range res.off.Misses {
		c := res.SymTab.CategoryOf(m.Func)
		if c == trace.CatBulkCopy {
			copies++
		}
	}
	if frac := float64(copies) / float64(res.off.Len()); frac < 0.25 {
		t.Errorf("Qry1 bulk-copy misses = %.2f of trace, want >= 0.25", frac)
	}
}

func TestMPKIOrdering(t *testing.T) {
	// DSS streams data and must show far higher off-chip MPKI than OLTP,
	// whose hot set is cache-resident.
	dss := run(t, Qry1, MultiChip).off.MPKI()
	oltp := run(t, OLTP, MultiChip).off.MPKI()
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

// TestRunStreamContextMatchesRunStream pins the ctx plumbing as pure
// plumbing: with an uncancellable context the run is byte-for-byte
// RunStream's (which the golden digests pin against the seed simulator).
func TestRunStreamContextMatchesRunStream(t *testing.T) {
	cfg := Config{App: Apache, Machine: SingleChip, Scale: Small, Seed: 4, TargetMisses: 3000}
	wantOff, wantIntra := &trace.Trace{}, &trace.Trace{}
	RunStream(cfg, wantOff, wantIntra)
	gotOff, gotIntra := &trace.Trace{}, &trace.Trace{}
	if _, err := RunStreamContext(context.Background(), cfg, gotOff, gotIntra); err != nil {
		t.Fatalf("RunStreamContext: %v", err)
	}
	if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotIntra, wantIntra) {
		t.Errorf("RunStreamContext traces differ from RunStream")
	}
}

// TestRunStreamContextPreCancelled: a dead context returns before the
// (expensive) construction pass even starts.
func TestRunStreamContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RunStreamContext(ctx, Config{App: OLTP, Machine: MultiChip, Scale: Small, Seed: 1, TargetMisses: 1 << 20}, &trace.Trace{}, nil)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStreamContext = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-cancelled RunStreamContext took %v: construction ran anyway", d)
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
