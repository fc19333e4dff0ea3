package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// jobTarget is tsload's default -target: off-chip misses per simulation.
const jobTarget = 20000

// intraCap caps each recorded intra-chip stream, so that whatever the
// seed, the largest query calls analyse the same number of records. The
// off-chip streams hold exactly jobTarget records, but the intra-chip
// streams' lengths follow the simulation: Apache's, Zeus's and OLTP's
// moved by up to 7% between seeds, and with them the p90 query call's
// latency. Capped, those three hold intraCap records each, and the p90
// falls inside the group of repeats of one of them; the smaller streams
// (the DSS queries', 5k to 21k records) vary by about 1%.
const intraCap = 3 * jobTarget

// stream is one recorded miss stream of the job list: one session's
// worth of records with its header and the symbol table of the
// simulation that produced it.
type stream struct {
	label   string // tsload's session label: app/machine[/intra]
	app     workload.App
	machine workload.MachineKind
	misses  []trace.Miss
	header  trace.Header
	symtab  *trace.SymbolTable
}

func (s *stream) cpus() int { return s.header.CPUs }

// recordJobs simulates the job list `tsload -machine both -intra` drives
// — every app on both machines, with the single-chip run's intra-chip
// stream, capped at intraCap records, as a second session — and keeps
// each stream. The simulations run GOMAXPROCS at a time. The result is
// ordered by label.
func recordJobs(seed int64) ([]*stream, error) {
	var (
		mu  sync.Mutex
		out []*stream
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, app := range workload.Apps() {
		for _, m := range []workload.MachineKind{workload.MultiChip, workload.SingleChip} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cfg := workload.Config{App: app, Machine: m, Scale: workload.Small, Seed: seed, TargetMisses: jobTarget}
				off := &trace.Trace{}
				var intra *trace.Trace
				var intraSink trace.Sink
				if m == workload.SingleChip {
					intra = &trace.Trace{}
					intraSink = intra
				}
				res := workload.RunStream(cfg, off, intraSink)
				label := fmt.Sprintf("%v/%v", app, m)
				got := []*stream{newStream(label, app, m, off, res.SymTab)}
				if intra != nil {
					got = append(got, capStream(newStream(label+"/intra", app, m, intra, res.SymTab), intraCap))
				}
				mu.Lock()
				out = append(out, got...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	sort.Slice(out, func(i, k int) bool { return out[i].label < out[k].label })
	for _, s := range out {
		if len(s.misses) == 0 {
			return nil, fmt.Errorf("recorded stream %s is empty", s.label)
		}
	}
	return out, nil
}

func newStream(label string, app workload.App, m workload.MachineKind, tr *trace.Trace, st *trace.SymbolTable) *stream {
	return &stream{
		label: label, app: app, machine: m,
		misses: tr.Misses,
		header: trace.Header{Misses: tr.Len(), Instructions: tr.Instructions, CPUs: tr.CPUs},
		symtab: st,
	}
}

// capStream keeps the first n records of s, scaling its instruction count
// to the records kept.
func capStream(s *stream, n int) *stream {
	if len(s.misses) <= n {
		return s
	}
	s.header.Instructions = s.header.Instructions * uint64(n) / uint64(len(s.misses))
	s.misses = s.misses[:n:n]
	s.header.Misses = n
	return s
}

// bySizeDesc returns the streams ordered largest first (ties by label),
// the order the closed-loop clients take them in: the small sessions
// come last, so the run ends with little work left on one client.
func bySizeDesc(ss []*stream) []*stream {
	out := append([]*stream(nil), ss...)
	sort.SliceStable(out, func(i, k int) bool { return len(out[i].misses) > len(out[k].misses) })
	return out
}

// sessionReference analyzes ms in process through a fresh
// tempstream.Session with the given window, sealing it with h: what the
// server or the store must return for the same records.
func sessionReference(cpus int, ms []trace.Miss, h trace.Header, window int) *server.SessionResult {
	ts := tempstream.NewSession(cpus, 0, tempstream.StreamOptions{Analysis: core.Options{MaxMisses: window}})
	ts.AppendBatch(ms)
	ts.Finish(h)
	return server.ResultOf(ts.Result(nil))
}

// parallel runs fn(i) for i in [0, n) on GOMAXPROCS goroutines.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
