// Command tsload is the ingest load generator: it fans the paper's six
// simulated applications out over N concurrent client connections to a
// tsserved daemon, streaming each simulation's classified misses over the
// wire protocol as they are produced, and reports per-session results
// plus aggregate ingest throughput.
//
// Usage:
//
//	tsload -addr HOST:7465 [-clients 4] [-apps all|oltp,apache,...]
//	       [-machine both] [-intra] [-scale small] [-seed 1] [-target 20000]
//	       [-window N] [-prefetch] [-repeat 1] [-json]
//	       [-progress 10s] [-log-format text|json] [-log-level LEVEL]
//
// Each job simulates one app on one machine model and streams its
// off-chip misses into one session; with -intra, a single-chip job
// streams the intra-chip misses into a second concurrent session fed by
// the same simulation — the same fan-out the library Runner performs in
// process. -repeat multiplies the job list for sustained load. The final
// line reports aggregate records/sec across all sessions, the number
// tsserved's ingest trajectory tracks.
//
// Sessions are resilient (server.DialResilient): transport resets,
// server sheds, and in-flight corruption are absorbed by reconnecting
// and resuming from the server's parked state, and the final summary
// includes per-error-class recovery counters (dials, transport faults,
// busy/draining sheds, resumes, restarts).
//
// -json emits the run summary as a single JSON object on stdout — job
// and failure counts, aggregate records/sec, the recovery counters, and
// one entry per completed session carrying the server's full
// SessionResult (digests included) — for harnesses (the fleet chaos
// e2e, the archive-equivalence e2e, CI) to parse; the human-readable
// lines move to stderr.
//
// Structured logs (slog, -log-format/-log-level) always go to stderr, so
// the -json stdout stays machine-clean: a progress line every -progress
// interval (jobs done, records, rate, recovery counters so far) and a
// final recovery summary broken out by error class.
//
// SIGINT/SIGTERM cancels the fleet: queued jobs are dropped, every
// in-flight simulation stops within one engine step, its half-fed
// sessions are closed, and the command exits cleanly (status 130) with
// the aggregate line for what did complete.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

type job struct {
	app     workload.App
	machine workload.MachineKind
}

// fleet carries the per-run dialing configuration and the aggregated
// recovery counters shared by every worker.
type fleet struct {
	addr string
	req  server.Request
	seed int64

	sessionSeq atomic.Int64 // distinct jitter seed per session

	mu      sync.Mutex
	retries server.RetryStats
}

// dial opens one session.
func (f *fleet) dial(label string, cpus int) (*server.ResilientSession, error) {
	req := f.req
	req.Label = label
	return server.DialResilient(f.addr, cpus, req, server.RetryPolicy{
		Seed: f.seed + f.sessionSeq.Add(1),
	})
}

// collect folds a finished (or failed) session's recovery counters into
// the fleet totals.
func (f *fleet) collect(s *server.ResilientSession) {
	f.mu.Lock()
	f.retries.Add(s.Stats())
	f.mu.Unlock()
}

// snapshot returns the recovery counters folded in so far.
func (f *fleet) snapshot() server.RetryStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retries
}

// retryAttrs breaks RetryStats out as slog attributes, one per error
// class — the structured twin of the human recovery line.
func retryAttrs(r server.RetryStats) []any {
	return []any{
		"dials", r.Dials, "transport", r.Transport, "busy", r.Busy,
		"draining", r.Draining, "stream_errors", r.StreamErrors,
		"resumes", r.Resumes, "restarts", r.Restarts, "resume_lost", r.ResumeLost,
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7465", "tsserved ingest address")
	clients := flag.Int("clients", 4, "concurrent client simulations")
	appsFlag := flag.String("apps", "all", "comma-separated app list, or all")
	machineFlag := flag.String("machine", "both", "machine model per app: multi, single, or both")
	intra := flag.Bool("intra", false, "also stream single-chip intra-chip misses (second session per CMP job)")
	scaleFlag := flag.String("scale", "small", "scale: small, medium, large")
	seed := flag.Int64("seed", 1, "random seed")
	target := flag.Int("target", 20000, "off-chip misses to stream per simulation")
	window := flag.Int("window", 0, "requested per-session analysis window in misses (0 = server default)")
	pf := flag.Bool("prefetch", false, "request a temporal-stream prefetcher evaluation per session")
	repeat := flag.Int("repeat", 1, "repetitions of the app x machine job list")
	jsonOut := flag.Bool("json", false, "machine-readable summary as one JSON object on stdout (human lines move to stderr)")
	progress := flag.Duration("progress", 10*time.Second, "structured progress log interval on stderr (0 = disabled)")
	logFlags := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
		os.Exit(2)
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	apps, err := cli.Apps(*appsFlag)
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
	if err := cli.Positive("-clients", *clients); err != nil {
		fatal(err)
	}
	if err := cli.Positive("-target", *target); err != nil {
		fatal(err)
	}
	if err := cli.Positive("-repeat", *repeat); err != nil {
		fatal(err)
	}
	if err := cli.NonNegative("-window", *window); err != nil {
		fatal(err)
	}
	if *intra {
		hasSingle := false
		for _, m := range machines {
			hasSingle = hasSingle || m == workload.SingleChip
		}
		if !hasSingle {
			fatal(fmt.Errorf("-intra requires -machine single or both"))
		}
	}

	// With -json, stdout carries exactly one JSON object; every human
	// line (per-session reports, aggregate) moves to stderr.
	human := io.Writer(os.Stdout)
	if *jsonOut {
		human = os.Stderr
	}

	req := server.Request{Analysis: core.Options{MaxMisses: *window}}
	if *pf {
		req.Prefetch = &prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}
	}
	fl := &fleet{addr: *addr, req: req, seed: *seed}

	var jobs []job
	for r := 0; r < *repeat; r++ {
		for _, app := range apps {
			for _, m := range machines {
				jobs = append(jobs, job{app, m})
			}
		}
	}

	// One signal context governs the fleet: SIGINT/SIGTERM stops handing
	// out jobs and cancels every in-flight simulation mid-step.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		mu           sync.Mutex
		failed       int
		sessions     []sessionReport
		totalRecords atomic.Int64
		jobsDone     atomic.Int64
		wg           sync.WaitGroup
	)
	collectSession := func(r sessionReport) {
		mu.Lock()
		sessions = append(sessions, r)
		mu.Unlock()
	}
	jobCh := make(chan job)
	start := time.Now()

	// Periodic structured progress on stderr: how far the run is and
	// what recovery work the resilient clients have done so far.
	progressDone := make(chan struct{})
	if *progress > 0 {
		go func() {
			t := time.NewTicker(*progress)
			defer t.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-t.C:
					elapsed := time.Since(start).Seconds()
					mu.Lock()
					failedNow := failed
					mu.Unlock()
					attrs := []any{
						"jobs_done", jobsDone.Load(), "jobs_total", len(jobs),
						"sessions_failed", failedNow,
						"records", totalRecords.Load(),
						"records_per_sec", float64(totalRecords.Load()) / elapsed,
					}
					logger.Info("progress", append(attrs, retryAttrs(fl.snapshot())...)...)
				}
			}
		}()
	}
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if ctx.Err() != nil {
					continue // interrupted: drain the queue without dialing new sessions
				}
				err := runJob(ctx, fl, j, scale, *seed, *target, *intra, &totalRecords, human, collectSession)
				jobsDone.Add(1)
				if errors.Is(err, context.Canceled) {
					continue // reported once below, not per job
				}
				if err != nil {
					mu.Lock()
					failed++
					fmt.Fprintf(os.Stderr, "tsload: %v/%v: %v\n", j.app, j.machine, err)
					mu.Unlock()
					logger.Warn("session failed", "app", fmt.Sprint(j.app), "machine", fmt.Sprint(j.machine), "error", err.Error())
				}
			}
		}()
	}
dispatch:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobCh)
	wg.Wait()
	close(progressDone)
	elapsed := time.Since(start)

	recs := totalRecords.Load()
	fmt.Fprintf(human, "tsload: %d jobs, %d sessions failed, %d records in %.2fs = %.0f records/sec aggregate\n",
		len(jobs), failed, recs, elapsed.Seconds(), float64(recs)/elapsed.Seconds())
	r := fl.retries
	fmt.Fprintf(human, "tsload: recovery: dials=%d transport=%d busy=%d draining=%d stream=%d resumes=%d restarts=%d resume_lost=%d\n",
		r.Dials, r.Transport, r.Busy, r.Draining, r.StreamErrors, r.Resumes, r.Restarts, r.ResumeLost)
	logger.Info("recovery", retryAttrs(r)...)
	if *jsonOut {
		// Deterministic session order regardless of worker scheduling.
		sort.Slice(sessions, func(i, k int) bool { return sessions[i].Label < sessions[k].Label })
		summary := struct {
			Jobs           int               `json:"jobs"`
			FailedSessions int               `json:"failed_sessions"`
			Records        int64             `json:"records"`
			Seconds        float64           `json:"seconds"`
			RecordsPerSec  float64           `json:"records_per_sec"`
			Interrupted    bool              `json:"interrupted"`
			Recovery       server.RetryStats `json:"recovery"`
			Sessions       []sessionReport   `json:"sessions,omitempty"`
		}{
			Jobs:           len(jobs),
			FailedSessions: failed,
			Records:        recs,
			Seconds:        elapsed.Seconds(),
			RecordsPerSec:  float64(recs) / elapsed.Seconds(),
			Interrupted:    ctx.Err() != nil,
			Recovery:       r,
			Sessions:       sessions,
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(summary); err != nil {
			fatal(err)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tsload: interrupted, remaining jobs cancelled")
		os.Exit(130)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// sessionReport is one completed session in the -json summary: the
// label the server saw and its full analysis result, digests included —
// the currency the archive-equivalence e2e compares against tsquery.
type sessionReport struct {
	Label   string                `json:"label"`
	Records int64                 `json:"records"`
	Result  *server.SessionResult `json:"result"`
}

// runJob simulates one app/machine pair, streaming into one session (plus
// an intra-chip session for CMP jobs when requested), and prints each
// session's result line. A cancelled ctx stops the simulation mid-step;
// the half-fed sessions are closed (their deferred Close) and ctx's
// error is returned.
func runJob(ctx context.Context, fl *fleet, j job, scale workload.Scale, seed int64, target int,
	intra bool, totalRecords *atomic.Int64, human io.Writer, collect func(sessionReport)) error {
	label := fmt.Sprintf("%v/%v", j.app, j.machine)
	off, err := fl.dial(label, j.machine.CPUCount())
	if err != nil {
		return err
	}
	defer fl.collect(off)
	defer off.Close()

	var intraSess *server.ResilientSession
	if intra && j.machine == workload.SingleChip {
		intraSess, err = fl.dial(label+"/intra", j.machine.CPUCount())
		if err != nil {
			return err
		}
		defer fl.collect(intraSess)
		defer intraSess.Close()
	}

	cfg := workload.Config{App: j.app, Machine: j.machine, Scale: scale, Seed: seed, TargetMisses: target}
	simStart := time.Now()
	var intraSink trace.Sink
	if intraSess != nil {
		intraSink = intraSess
	}
	if _, runErr := workload.RunStreamContext(ctx, cfg, off, intraSink); runErr != nil {
		return runErr
	}
	simSecs := time.Since(simStart).Seconds()

	report := func(label string, cs *server.ResilientSession) error {
		res, err := cs.Result()
		if err != nil {
			return err
		}
		totalRecords.Add(cs.Records())
		collect(sessionReport{Label: label, Records: cs.Records(), Result: res})
		fmt.Fprintf(human, "  %-22s records=%-8d window=%-7d streams=%5.1f%% mpki=%7.3f %8.0f records/sec\n",
			label, cs.Records(), res.Window, 100*res.StreamFrac, res.MPKI,
			float64(cs.Records())/simSecs)
		return nil
	}
	if err := report(label, off); err != nil {
		return err
	}
	if intraSess != nil {
		if err := report(label+"/intra", intraSess); err != nil {
			return err
		}
	}
	return nil
}
