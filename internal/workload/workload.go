// Package workload assembles the paper's six application configurations
// (Table 1) - Apache and Zeus web serving, OLTP (TPC-C on DB2), and DSS
// TPC-H queries 1, 2, and 17 - over the kernel and database behavioral
// models, runs them on either machine model, and streams each run's
// classified misses into the caller's sinks, ready for analysis.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/solaris"
	"repro/internal/trace"
)

// App identifies one of the paper's six applications.
type App int

const (
	Apache App = iota
	Zeus
	OLTP
	Qry1
	Qry2
	Qry17
	NumApps
)

var appNames = [NumApps]string{"Apache", "Zeus", "OLTP", "Qry1", "Qry2", "Qry17"}

func (a App) String() string {
	if a >= 0 && a < NumApps {
		return appNames[a]
	}
	return "invalid app"
}

// Class returns the application class ("Web", "OLTP", "DSS").
func (a App) Class() string {
	switch a {
	case Apache, Zeus:
		return "Web"
	case OLTP:
		return "OLTP"
	default:
		return "DSS"
	}
}

// Apps lists all six applications in the paper's presentation order.
func Apps() []App { return []App{Apache, Zeus, OLTP, Qry1, Qry2, Qry17} }

// MachineKind selects the system organization.
type MachineKind int

const (
	// MultiChip is the 16-node DSM (one core per chip, MSI directory).
	MultiChip MachineKind = iota
	// SingleChip is the 4-core CMP (shared L2, MOSI).
	SingleChip
)

func (m MachineKind) String() string {
	if m == MultiChip {
		return "multi-chip"
	}
	return "single-chip"
}

// Scale sets the size of caches and data footprints. Ratios between L1,
// L2, and application footprints are preserved across scales, so the
// paper's shape results hold at every scale; Small is the test/bench
// default, Medium the reporting default.
type Scale int

const (
	Small Scale = iota
	Medium
	Large
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return "large"
	}
}

// caches returns the cache geometry for a scale.
func (s Scale) caches() sim.CacheParams {
	switch s {
	case Small:
		// Preserve the paper's 1:128 L1:L2 capacity ratio (64 KB : 8 MB).
		return sim.CacheParams{L1Bytes: 8 << 10, L2Bytes: 1 << 20, L2Ways: 16}
	case Medium:
		return sim.CacheParams{L1Bytes: 16 << 10, L2Bytes: 2 << 20, L2Ways: 16}
	default:
		return sim.PaperCaches()
	}
}

// factor is the footprint multiplier relative to Small.
func (s Scale) factor() int {
	switch s {
	case Small:
		return 1
	case Medium:
		return 4
	default:
		return 32
	}
}

// DefaultTargetMisses is the off-chip miss target applied when
// Config.TargetMisses is zero.
const DefaultTargetMisses = 60000

// Config selects one experiment run.
type Config struct {
	App          App
	Machine      MachineKind
	Scale        Scale
	Seed         int64
	TargetMisses int // off-chip misses to collect after warmup (0 = default)
	WarmMisses   int // off-chip misses to discard as warmup (0 = default)
}

// Result describes one run. Its classified records leave the simulation
// only through the sinks handed to RunStream or RunStreamContext.
type Result struct {
	// Config is the configuration as run, with the target and warm-up
	// defaults filled in.
	Config    Config
	SymTab    *trace.SymbolTable
	Footprint uint64
}

// CPUCount returns the paper's processor count for each machine kind.
func (m MachineKind) CPUCount() int {
	if m == MultiChip {
		return 16
	}
	return 4
}

// builder carries the wiring shared by the app constructors.
type builder struct {
	cfg  Config
	as   *memmap.AddressSpace
	st   *trace.SymbolTable
	k    *solaris.Kernel
	d    *db.Engine
	rng  *rand.Rand
	ncpu int

	threads []pendingThread
	warm    func(ctx *engine.Ctx) // optional pre-run population pass
}

type pendingThread struct {
	t    engine.Thread
	name string
	cpu  int
}

func (b *builder) addThread(t engine.Thread, name string, cpu int) {
	b.threads = append(b.threads, pendingThread{t, name, cpu})
}

// RunStream executes one configuration end to end, emitting the
// measurement-window records into the given sinks: each sink receives
// its window's misses in trace order followed by one Finish carrying the
// window header (record count, instructions retired during measurement,
// CPU count). Either sink may be nil to discard that stream; intra is
// ignored for MultiChip runs, which have no intra-chip stream. A
// *trace.Trace sink is presized to the most records its window can
// hold, so it collects the stream without regrowing. RunStream cannot be
// cancelled; long sweeps should prefer RunStreamContext.
func RunStream(cfg Config, off, intra trace.Sink) *Result {
	res, _ := RunStreamContext(context.Background(), cfg, off, intra)
	return res
}

// RunStreamContext is RunStream bound to a context: cancellation reaches
// the engine's per-step stop predicates, so a multi-minute simulation
// stops within one engine step of ctx being cancelled. On cancellation
// the sinks receive no Finish — the stream simply stops mid-flight — and
// the call returns (nil, ctx's cause); consumers discard their partial
// state through their own abandon paths (e.g. tempstream.Session.Close).
// With a never-cancelled context it is exactly RunStream.
func RunStreamContext(ctx context.Context, cfg Config, off, intra trace.Sink) (*Result, error) {
	res, _, err := runSinks(ctx, cfg, off, intra)
	return res, err
}

// runSinks is RunStreamContext that also returns the simulated kernel,
// for the package's tests of scheduler activity.
func runSinks(ctx context.Context, cfg Config, offSink, intraSink trace.Sink) (*Result, *solaris.Kernel, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, nil, err // cancelled before construction: skip the build
	}
	if cfg.TargetMisses == 0 {
		cfg.TargetMisses = DefaultTargetMisses
	}
	ncpu := cfg.Machine.CPUCount()
	if cfg.WarmMisses == 0 {
		// Reaching cache steady state requires at least refilling every
		// L2 in the system after the construction pass.
		cp := cfg.Scale.caches()
		cfg.WarmMisses = ncpu*cp.L2Bytes/64 + cfg.TargetMisses/2
	}

	as := memmap.New()
	st := trace.NewSymbolTable(as)
	kp := solaris.DefaultParams(ncpu)
	kp.KDataBytes = 4 << 20
	// The TSB covers only part of the footprint at every scale, so
	// translation misses walk the page tables at a realistic rate.
	kp.TSBEntries = 2048 * cfg.Scale.factor()
	k := solaris.NewKernel(as, st, kp)

	b := &builder{
		cfg:  cfg,
		as:   as,
		st:   st,
		k:    k,
		rng:  rand.New(rand.NewSource(cfg.Seed + int64(cfg.App)*1299709 + int64(cfg.Machine)*15485863)),
		ncpu: ncpu,
	}

	switch cfg.App {
	case Apache, Zeus:
		buildWeb(b)
	case OLTP:
		buildOLTP(b)
	case Qry1, Qry2, Qry17:
		buildDSS(b)
	default:
		panic(fmt.Sprintf("workload: unknown app %v", cfg.App))
	}

	k.VM.Finalize()
	var mach sim.Machine
	if cfg.Machine == MultiChip {
		mach = sim.NewDSM(ncpu, cfg.Scale.caches(), as.Blocks())
	} else {
		mach = sim.NewCMP(ncpu, cfg.Scale.caches(), as.Blocks())
	}

	// Route the machine's records through closed gates: construction and
	// warmup misses are counted for the stop predicates but dropped, so
	// the multi-megabyte warmup prefix never materializes. Presize the
	// measurement sinks that are plain traces so the hot append path never
	// re-doubles mid-run (+slack for stop-predicate overshoot).
	offGate := &trace.Gate{}
	if t, ok := offSink.(*trace.Trace); ok && t != nil {
		t.Grow(cfg.TargetMisses + 4096)
	}
	var intraGate *trace.Gate
	if cfg.Machine == SingleChip {
		intraGate = &trace.Gate{}
		if t, ok := intraSink.(*trace.Trace); ok && t != nil {
			t.Grow(40*cfg.TargetMisses + 4096)
		}
	}
	mach.SetGates(offGate, intraGate)

	eng := engine.New(mach, k.Sched, k.Sync, cfg.Seed^0x5eed)
	for cpu := 0; cpu < ncpu; cpu++ {
		k.VM.Install(eng.Ctx(cpu))
	}
	for _, pt := range b.threads {
		tcb := k.CreateThread(eng, pt.t, pt.name, pt.cpu)
		eng.Start(tcb)
	}
	if b.warm != nil {
		b.warm(eng.Ctx(0))
		eng.FlushInstr()
	}

	// Warmup: run the engine for WarmMisses *additional* off-chip misses
	// beyond the construction pass, so measurement starts from scheduler
	// and cache steady state (the paper warms for 5000+ transactions).
	// The stop predicates close over the gates hoisted above, so each
	// per-step poll is one int compare with no interface call.
	warmTarget := offGate.Total() + cfg.WarmMisses
	if err := eng.RunContext(ctx, func() bool { return offGate.Total() >= warmTarget }); err != nil {
		return nil, nil, err
	}
	warmOff := offGate.Total()
	warmInstr := mach.OffChip().Instructions
	var warmIntra int
	if intraGate != nil {
		warmIntra = intraGate.Total()
	}

	// Measurement: open the gates onto the caller's sinks.
	offGate.Open(offSink)
	total := warmOff + cfg.TargetMisses
	var err error
	if intraGate != nil {
		intraGate.Open(intraSink)
		intraCap := warmIntra + 40*cfg.TargetMisses
		err = eng.RunContext(ctx, func() bool { return offGate.Total() >= total || intraGate.Total() >= intraCap })
	} else {
		err = eng.RunContext(ctx, func() bool { return offGate.Total() >= total })
	}
	if err != nil {
		// Cancelled mid-measurement: the sinks never see Finish, so a
		// consumer can tell a dropped stream from a completed one.
		return nil, nil, err
	}

	instr := mach.OffChip().Instructions
	offGate.Finish(instr-warmInstr, ncpu)
	if intraGate != nil {
		intraGate.Finish(instr-warmInstr, ncpu)
	}

	return &Result{Config: cfg, SymTab: st, Footprint: as.Footprint()}, k, nil
}
