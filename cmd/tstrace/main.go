// Command tstrace runs one workload/machine configuration and dumps the
// classified off-chip miss trace (and optionally the intra-chip trace) in
// a textual format: position, cpu, block address, class, supplier,
// function, category. Useful for inspecting what the simulator produces
// and for feeding external analyses.
//
// Usage:
//
//	tstrace -app oltp -machine multi [-scale small] [-n 1000] [-intra]
//	tstrace -app oltp -machine multi -stream [-window 5000]
//	tstrace -app oltp -machine multi -record trace.tsw
//	tstrace -app oltp -machine multi -store archives/
//	tstrace -replay trace.tsw [-n 1000]
//	tstrace -replay trace.tsw -stream [-window 5000]
//
// -machine both simulates the multi-chip and single-chip organizations
// concurrently and dumps both traces, multi-chip first.
//
// -stream switches to the streaming data path: instead of materializing
// the trace, the simulator pushes each measurement-window miss through a
// buffered channel of record chunks (trace.Pipelined) into an incremental
// analyzer sink on its own goroutine, and one line of temporal-stream
// statistics is printed per -window misses as the simulation runs. Peak
// memory is bounded by the window regardless of -target.
//
// -record FILE streams the selected trace into a wire-format archive
// (internal/wire: framed, delta-encoded, CRC-protected, with the symbol
// table in the trailer) without materializing it; -replay FILE reads such
// an archive — from this command, another tool, or another machine — in
// place of running a simulation, driving exactly the sinks a live run
// would drive. Record→replay is byte-identical: replayed analyses
// reproduce the in-process results field for field.
//
// -store DIR records into the managed archive store (internal/store)
// instead of a bare file: the archive is committed under DIR's manifest
// with the run's full identity (app, machine, scale, seed), so tsquery
// can select it later by workload predicates instead of file paths.
//
// Every simulating mode runs under one signal context: SIGINT/SIGTERM
// stops the engine within one step (mid-warmup or mid-measurement) and
// the command exits cleanly (status 130) instead of running the
// remaining misses. -record writes to FILE.tmp and renames into place
// only after the trailer lands, so FILE is always a complete archive:
// an interrupt or crash mid-record cleans up the temp file and leaves
// any previous FILE untouched.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// interrupted reports a cancelled run to stderr and exits with the
// conventional SIGINT status.
func interrupted() {
	fmt.Fprintln(os.Stderr, "tstrace: interrupted, cancelling simulation")
	os.Exit(130)
}

func main() {
	appFlag := flag.String("app", "oltp", "workload: apache, zeus, oltp, qry1, qry2, qry17")
	machineFlag := flag.String("machine", "multi", "machine model: multi, single, or both")
	scaleFlag := flag.String("scale", "small", "scale: small, medium, large")
	n := flag.Int("n", 1000, "misses to print (0 = all)")
	target := flag.Int("target", 20000, "misses to simulate")
	intra := flag.Bool("intra", false, "use the intra-chip trace (single-chip only)")
	seed := flag.Int64("seed", 1, "random seed")
	stream := flag.Bool("stream", false, "streaming mode: print per-window stream fractions as the simulation runs")
	window := flag.Int("window", 5000, "misses per analysis window in -stream mode")
	record := flag.String("record", "", "write the selected miss stream to this wire-format archive instead of dumping text")
	storeDir := flag.String("store", "", "record the selected miss stream into the managed archive store at this directory (manifest-indexed; query with tsquery)")
	replay := flag.String("replay", "", "read the miss stream from this wire-format archive instead of simulating")
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "tstrace: %v\n", err)
		os.Exit(2)
	}

	// Numeric validation first: these apply in every mode.
	if err := cli.NonNegative("-n", *n); err != nil {
		fatal(err)
	}
	if err := cli.Positive("-target", *target); err != nil {
		fatal(err)
	}
	if err := cli.Positive("-window", *window); err != nil {
		fatal(err)
	}
	if *stream && *window < 2 {
		fatal(fmt.Errorf("-window must be at least 2 in -stream mode"))
	}
	if *record != "" && *replay != "" {
		fatal(fmt.Errorf("-record and -replay are mutually exclusive"))
	}
	if *record != "" && *stream {
		fatal(fmt.Errorf("-record and -stream are mutually exclusive (replay the archive with -replay -stream)"))
	}
	if *storeDir != "" && (*record != "" || *replay != "" || *stream) {
		fatal(fmt.Errorf("-store is a recording destination: it cannot combine with -record, -replay, or -stream"))
	}

	// One signal context governs every simulating mode below:
	// SIGINT/SIGTERM reaches the engine's per-step stop predicates.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		if err := replayFile(os.Stdout, *replay, *stream, *window, *n); err != nil {
			fatal(err)
		}
		return
	}

	app, err := cli.App(*appFlag)
	if err != nil {
		fatal(err)
	}
	machines, err := cli.Machines(*machineFlag)
	if err != nil {
		fatal(err)
	}
	scale, err := cli.Scale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	single := len(machines) == 1 && machines[0] == workload.SingleChip
	if *intra && !single {
		fatal(fmt.Errorf("-intra requires -machine single (multi-chip runs have no intra-chip trace)"))
	}

	if *record != "" {
		if len(machines) != 1 {
			fatal(fmt.Errorf("-record requires a single machine (-machine multi or single)"))
		}
		err := recordFile(ctx, *record, app, machines[0], scale, *seed, *target, *intra)
		if errors.Is(err, context.Canceled) {
			interrupted()
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if *storeDir != "" {
		if len(machines) != 1 {
			fatal(fmt.Errorf("-store requires a single machine (-machine multi or single)"))
		}
		err := recordStore(ctx, *storeDir, app, machines[0], scale, *seed, *target, *intra)
		if errors.Is(err, context.Canceled) {
			interrupted()
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if *stream {
		if len(machines) != 1 {
			fatal(fmt.Errorf("-stream requires a single machine (-machine multi or single)"))
		}
		if err := streamRun(ctx, os.Stdout, app, machines[0], scale, *seed, *target, *window, *intra); err != nil {
			interrupted()
		}
		return
	}

	// Simulate all requested machines concurrently, each collecting the
	// selected stream into a trace, then dump in order.
	results := make([]*workload.Result, len(machines))
	traces := make([]*trace.Trace, len(machines))
	errs := make([]error, len(machines))
	g := par.Group{Pool: par.NewPool(0)}
	for i, machine := range machines {
		tr := &trace.Trace{}
		traces[i] = tr
		var off, intraSink trace.Sink = tr, nil
		if *intra {
			off, intraSink = nil, tr // -intra implies single-chip
		}
		g.GoCtx(ctx, func() {
			results[i], errs[i] = workload.RunStreamContext(ctx, workload.Config{
				App: app, Machine: machine, Scale: scale, Seed: *seed, TargetMisses: *target,
			}, off, intraSink)
		})
	}
	g.Wait()
	if ctx.Err() != nil {
		interrupted()
	}
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, res := range results {
		header := fmt.Sprintf("# app=%v machine=%v scale=%v", app, machines[i], scale)
		dump(w, header, res.SymTab, traces[i], *n)
	}
}

// recordFile streams one configuration's selected miss stream straight
// into a wire archive: the encoder is the measurement sink, so the trace
// is never materialized. The archive is written to path.tmp and renamed
// into place only after the trailer has landed and synced, so path never
// holds a truncated, trailerless stream — a crash, cancellation, or
// full disk leaves the previous archive (if any) untouched.
func recordFile(ctx context.Context, path string, app workload.App, machine workload.MachineKind,
	scale workload.Scale, seed int64, target int, intra bool) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := wire.NewEncoder(bw, machine.CPUCount())
	cfg := workload.Config{App: app, Machine: machine, Scale: scale, Seed: seed, TargetMisses: target}
	var res *workload.Result
	if intra {
		res, err = workload.RunStreamContext(ctx, cfg, nil, enc)
	} else {
		res, err = workload.RunStreamContext(ctx, cfg, enc, nil)
	}
	if err != nil {
		return err
	}
	enc.SetSymbols(wire.FuncsOf(res.SymTab))
	if err = enc.Close(); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("tstrace: recorded %d misses (%s, %v, %v) to %s: %d bytes, %.2f bytes/miss\n",
		enc.Records(), app, machine, scale, path, fi.Size(),
		float64(fi.Size())/float64(max(enc.Records(), 1)))
	return nil
}

// recordStore streams one configuration's selected miss stream into the
// managed archive store: the store's Writer is the measurement sink, and
// Commit publishes the archive plus a manifest entry carrying the full
// workload identity (app, machine, scale, seed). Crash-safety is the
// store's: an interrupt mid-record aborts the temp file and the manifest
// never mentions the run.
func recordStore(ctx context.Context, dir string, app workload.App, machine workload.MachineKind,
	scale workload.Scale, seed int64, target int, intra bool) error {
	s, damaged, err := store.Open(dir)
	if err != nil {
		return err
	}
	for _, d := range damaged {
		fmt.Fprintf(os.Stderr, "tstrace: store: %v (entry excluded)\n", d)
	}
	meta := store.Meta{
		App:     strings.ToLower(app.String()),
		Machine: machine.String(),
		Scale:   scale.String(),
		Seed:    seed,
	}
	w, err := s.NewWriter(meta, machine.CPUCount())
	if err != nil {
		return err
	}
	cfg := workload.Config{App: app, Machine: machine, Scale: scale, Seed: seed, TargetMisses: target}
	var res *workload.Result
	if intra {
		res, err = workload.RunStreamContext(ctx, cfg, nil, w)
	} else {
		res, err = workload.RunStreamContext(ctx, cfg, w, nil)
	}
	if err != nil {
		w.Abort()
		return err
	}
	w.SetSymbols(wire.FuncsOf(res.SymTab))
	entry, err := w.Commit()
	if err != nil {
		w.Abort()
		return err
	}
	fmt.Printf("tstrace: recorded %d misses (%s, %v, %v, seed %d) to store %s as %s: %d bytes, %s\n",
		entry.Records, app, machine, scale, seed, dir, entry.ID, entry.Bytes, entry.Digest)
	return nil
}

// replayFile drives the dump or streaming-analysis sinks from a wire
// archive instead of a simulation, writing to out.
func replayFile(out io.Writer, path string, stream bool, window, n int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	w := bufio.NewWriter(out)
	defer w.Flush()

	dec := wire.NewDecoder(f)
	meta, err := dec.Meta()
	if err != nil {
		return err
	}
	tr := &trace.Trace{}
	var sink trace.Sink = tr
	if stream {
		fmt.Fprintf(w, "# replay=%s cpus=%d window=%d\n", path, meta.CPUs, window)
		sink = &windowSink{w: w, an: core.NewAnalyzer(), cpus: meta.CPUs, window: window}
	}
	trailer, err := dec.Run(sink)
	if err != nil {
		return err
	}
	if err := dec.ExpectEOF(); err != nil {
		return err
	}
	if !stream {
		dump(w, fmt.Sprintf("# replay=%s", path), trailer.SymbolTable(), tr, n)
	}
	return nil
}

// windowSink is the -stream consumer: an analyzer recycled every window
// misses, printing one statistics line per completed window while the
// simulation keeps running.
type windowSink struct {
	w      *bufio.Writer
	an     *core.Analyzer
	cpus   int
	window int

	// misses holds the current window's records. Its storage is reused:
	// each window's analysis is printed and dropped before the next
	// window overwrites it.
	misses []trace.Miss

	idx      int // windows completed
	total    int
	inStream int
}

// AppendBatch implements trace.Sink, cutting the chunk at window
// boundaries: the analyzer's window is -window records, so Observe takes
// at most what the current window has left.
func (s *windowSink) AppendBatch(ms []trace.Miss) {
	for len(ms) > 0 {
		if len(s.misses) == 0 {
			s.an.Begin(s.cpus, core.Options{MaxMisses: s.window})
		}
		n := s.an.Observe(ms)
		s.misses = append(s.misses, ms[:n]...)
		ms = ms[n:]
		if len(s.misses) == s.window {
			s.flush()
		}
	}
}

func (s *windowSink) flush() {
	a := s.an.Finish(s.misses)
	_, ns, rc := a.Fractions()
	counts := a.StateCounts()
	s.inStream += counts[core.NewStream] + counts[core.Recurring]
	s.total += len(a.Misses)
	fmt.Fprintf(s.w, "window %-4d misses=%-7d in_streams=%5.1f%% new=%5.1f%% recurring=%5.1f%% rules=%-6d median_len=%.0f\n",
		s.idx, len(a.Misses), 100*(ns+rc), 100*ns, 100*rc, a.GrammarRules(), a.MedianStreamLength())
	s.w.Flush() // live output: the simulation keeps running after this line
	s.idx++
	s.misses = s.misses[:0]
}

// Finish implements trace.Sink.
func (s *windowSink) Finish(h trace.Header) {
	if len(s.misses) > 0 {
		s.flush()
	}
	fmt.Fprintf(s.w, "# done: windows=%d misses=%d in_streams=%.1f%% instructions=%d mpki=%.3f\n",
		s.idx, s.total, 100*float64(s.inStream)/float64(max(s.total, 1)), h.Instructions, h.MPKI())
}

// streamRun drives one configuration through the streaming data path,
// writing to out: the window analysis runs on its own goroutine behind a
// trace.Pipelined channel, overlapping the simulator. On cancellation the
// already-printed windows stand (they were live output) and the error is
// returned.
func streamRun(ctx context.Context, out io.Writer, app workload.App, machine workload.MachineKind, scale workload.Scale,
	seed int64, target, window int, intra bool) error {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "# app=%v machine=%v scale=%v target=%d window=%d stream=%s\n",
		app, machine, scale, target, window, map[bool]string{false: "off-chip", true: "intra-chip"}[intra])
	p := trace.NewPipelined(&windowSink{w: w, an: core.NewAnalyzer(), cpus: machine.CPUCount(), window: window})
	defer p.Close()
	cfg := workload.Config{App: app, Machine: machine, Scale: scale, Seed: seed, TargetMisses: target}
	var err error
	if intra {
		_, err = workload.RunStreamContext(ctx, cfg, nil, p)
	} else {
		_, err = workload.RunStreamContext(ctx, cfg, p, nil)
	}
	return err
}

func dump(w io.Writer, header string, st *trace.SymbolTable, tr *trace.Trace, n int) {
	fmt.Fprintf(w, "%s misses=%d instructions=%d mpki=%.3f\n",
		header, tr.Len(), tr.Instructions, tr.MPKI())
	fmt.Fprintf(w, "# %-8s %-4s %-14s %-14s %-8s %-24s %s\n",
		"pos", "cpu", "block", "class", "supply", "function", "category")
	limit := tr.Len()
	if n > 0 && n < limit {
		limit = n
	}
	for i := 0; i < limit; i++ {
		m := tr.Misses[i]
		f := st.Func(m.Func)
		fmt.Fprintf(w, "%-10d %-4d %#-14x %-14s %-8s %-24s %s\n",
			i, m.CPU, m.Addr, m.Class, m.Supplier, f.Name, f.Category)
	}
}
