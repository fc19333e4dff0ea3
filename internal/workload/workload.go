// Package workload assembles the paper's six application configurations
// (Table 1) - Apache and Zeus web serving, OLTP (TPC-C on DB2), and DSS
// TPC-H queries 1, 2, and 17 - over the kernel and database behavioral
// models, runs them on either machine model, and returns classified miss
// traces ready for analysis.
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

// Result carries the classified traces of one run.
type Result struct {
	Config    Config
	OffChip   *trace.Trace
	IntraChip *trace.Trace // nil for MultiChip
	SymTab    *trace.SymbolTable
	CPUs      int
	Footprint uint64
	AS        *memmap.AddressSpace
	Kernel    *solaris.Kernel
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

// Run executes one configuration end to end and returns its traces. It is
// the batch form of RunStream: the measurement sinks are materializing
// traces, presized to the measurement window. Run cannot be cancelled;
// long sweeps should prefer RunContext.
func Run(cfg Config) *Result {
	res, _ := RunContext(context.Background(), cfg)
	return res
}

// RunContext is Run bound to a context: cancellation reaches the
// engine's per-step stop predicates, so a multi-minute simulation stops
// within one engine step of ctx being cancelled. On cancellation it
// returns (nil, ctx's cause); the partial traces are discarded. With a
// never-cancelled context (e.g. context.Background()) it is exactly Run.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	off := &trace.Trace{}
	var intra *trace.Trace
	var intraSink trace.Sink
	if cfg.Machine == SingleChip {
		intra = &trace.Trace{}
		intraSink = intra
	}
	res, err := runSinks(ctx, cfg, off, intraSink)
	if err != nil {
		return nil, err
	}
	res.OffChip = off
	res.IntraChip = intra
	return res, nil
}

// RunStream executes one configuration end to end, emitting the
// measurement-window records into the given sinks instead of materializing
// traces: each sink receives its window's misses in trace order followed
// by one Finish carrying the window header (record count, instructions
// retired during measurement, CPU count). Either sink may be nil to
// discard that stream; intra is ignored for MultiChip runs, which have no
// intra-chip stream. The returned Result carries everything but the
// traces (OffChip and IntraChip are nil).
//
// A RunStream with materializing trace sinks is exactly Run: the same
// engine drives the same machine through the same warmup gate, so the
// emitted records are byte-for-byte those of the batch path.
func RunStream(cfg Config, off, intra trace.Sink) *Result {
	res, _ := RunStreamContext(context.Background(), cfg, off, intra)
	return res
}

// RunStreamContext is RunStream bound to a context. On cancellation the
// sinks receive no Finish — the stream simply stops mid-flight — and the
// call returns (nil, ctx's cause); consumers discard their partial state
// through their own abandon paths (e.g. tempstream.Session.Close). With
// a never-cancelled context it is exactly RunStream.
func RunStreamContext(ctx context.Context, cfg Config, off, intra trace.Sink) (*Result, error) {
	return runSinks(ctx, cfg, off, intra)
}

// runSinks is the shared engine of Run and RunStream (and their ctx
// forms).
func runSinks(ctx context.Context, cfg Config, offSink, intraSink trace.Sink) (*Result, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, err // cancelled before construction: skip the build
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
	var intraGate *trace.Gate
	if cfg.Machine == SingleChip {
		intraGate = &trace.Gate{}
	}
	mach.SetGates(offGate, intraGate)
	if t, ok := offSink.(*trace.Trace); ok && t != nil {
		t.Grow(cfg.TargetMisses + 4096)
	}
	if t, ok := intraSink.(*trace.Trace); ok && t != nil {
		t.Grow(40*cfg.TargetMisses + 4096)
	}

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
		return nil, err
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
		return nil, err
	}

	instr := mach.OffChip().Instructions
	offGate.Finish(instr-warmInstr, ncpu)
	if intraGate != nil {
		intraGate.Finish(instr-warmInstr, ncpu)
	}

	return &Result{
		Config:    cfg,
		SymTab:    st,
		CPUs:      ncpu,
		Footprint: as.Footprint(),
		AS:        as,
		Kernel:    k,
	}, nil
}
