package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/store"
)

// The ingest path is what a fleet operator runs: the job list of
// `tsload -machine both -intra`, recorded once in setup, replayed by
// ingestClients closed-loop clients with ResilientSession (tsload's
// default client) through tsgate into one tsserved with an archive
// store, both served inside this process on loopback. It is not a gated
// workload (its wall-clock figures were too unsteady on a shared host);
// the traced query run drives it to measure its layers.

const (
	// ingestWindow is tsserved's -max-window here: well below the
	// streams' length (20k off-chip records, up to 60k intra-chip), so
	// the data path does most of the work and core little.
	ingestWindow = 5000
	// ingestClients is the closed loop's client count: one per vCPU of
	// the reference host.
	ingestClients = 2
	// ingestPassSeconds is the nominal duration of one pass over the job
	// list on the reference host; it fixes the pass count.
	ingestPassSeconds = 0.06
)

type ingestState struct {
	dir string
	// streams is the job list, largest first: the order clients take
	// them in. Twelve of its 18 sessions are the ~20k-record off-chip
	// streams, so the p50 falls among sessions of one size; the p90 falls
	// among the largest intra-chip ones.
	streams []*stream
	refs    map[*stream]*server.SessionResult
	st      *store.Store
	srv     *server.Server
	gw      *gateway.Gateway
	serving sync.WaitGroup
	seq     int64 // distinct jitter seed per session

	mu      sync.Mutex
	retries server.RetryStats
}

func setupIngest(seed int64, dir string) (*ingestState, error) {
	streams, err := recordJobs(seed)
	if err != nil {
		return nil, err
	}
	s := &ingestState{dir: dir, streams: bySizeDesc(streams), refs: map[*stream]*server.SessionResult{}, seq: seed << 20}
	refs := make([]*server.SessionResult, len(streams))
	parallel(len(streams), func(i int) {
		j := streams[i]
		refs[i] = sessionReference(j.cpus(), j.misses, j.header, ingestWindow)
	})
	for i, j := range streams {
		s.refs[j] = refs[i]
	}
	if err := s.start(); err != nil {
		s.stop()
		return nil, err
	}
	// One untimed warm-up op: the smallest session, end to end.
	if _, err := s.session(nil, -1, s.streams[len(s.streams)-1]); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up session: %w", err)
	}
	return s, nil
}

// start brings up tsserved (archiving into a fresh store) and tsgate in
// front of it, and waits until the gateway's first probe has closed the
// backend's circuit: a session dialled earlier is shed and backs off.
func (s *ingestState) start() error {
	st, _, err := store.Open(filepath.Join(s.dir, "store"))
	if err != nil {
		return err
	}
	s.st = st
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.NewServer(sln, server.Config{Name: "perfbench", MaxWindow: ingestWindow, Archive: st})
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sln.Close()
		s.srv = nil
		return err
	}
	s.gw = gateway.New(gln, gateway.Config{Backends: []string{s.srv.Addr().String()}})
	s.serving.Add(2)
	go func() { defer s.serving.Done(); s.srv.Serve() }()
	go func() { defer s.serving.Done(); s.gw.Serve() }()
	deadline := time.Now().Add(10 * time.Second)
	for s.gw.Stats().HealthyBackends < 1 {
		if time.Now().After(deadline) {
			return errors.New("gateway never reported its backend healthy")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// stop drains the gateway and the server, waits for both to return, and
// removes the store.
func (s *ingestState) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.gw != nil {
		s.gw.Shutdown(ctx)
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	s.serving.Wait()
	removeAll(filepath.Join(s.dir, "store"))
}

// session is one op: dial through tsgate, stream the recorded records,
// collect the server's result and compare it with the in-process
// reference. It returns the records streamed.
func (s *ingestState) session(tr *tracer, op int, j *stream) (int64, error) {
	root := tr.begin("ingest.session", -1, op)
	defer tr.end(root)
	s.mu.Lock()
	s.seq++
	seed := s.seq
	s.mu.Unlock()

	d := tr.begin("server.dial", root, op)
	cs, err := server.DialResilient(s.gw.Addr().String(), j.cpus(), server.Request{Label: j.label}, server.RetryPolicy{Seed: seed})
	tr.end(d)
	if err != nil {
		return 0, fmt.Errorf("%s: dial: %w", j.label, err)
	}
	defer cs.Close()
	send := tr.begin("server.send", root, op)
	for _, m := range j.misses {
		cs.Append(m)
	}
	cs.Finish(j.header)
	tr.end(send)
	wait := tr.begin("server.result_wait", root, op)
	res, err := cs.Result()
	tr.end(wait)
	s.mu.Lock()
	s.retries.Add(cs.Stats())
	s.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", j.label, err)
	}
	if err := check(j.label, res, s.refs[j]); err != nil {
		return 0, err
	}
	return cs.Records(), nil
}

// pass runs the job list once through the closed loop: ingestClients
// clients each take the next session as soon as their last one
// returned.
func (s *ingestState) pass(tr *tracer, firstOp int, ops *opLog) int64 {
	next := make(chan int)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records int64
	)
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				n, err := s.session(tr, firstOp+i, s.streams[i])
				ops.record(time.Since(t0), err)
				mu.Lock()
				records += n
				mu.Unlock()
			}
		}()
	}
	for i := range s.streams {
		next <- i
	}
	close(next)
	wg.Wait()
	return records
}

// prune empties the archive store between passes, outside the timer, so
// a run's store stays one pass deep however many passes it makes.
func (s *ingestState) prune() error {
	_, err := s.st.Prune(store.Retention{MaxBytes: 1}, time.Now())
	return err
}

// ingestPasses is the traced query run's pass count over the job list:
// a quarter of -seconds at ingestPassSeconds per pass.
func ingestPasses(seconds int) int {
	return max(6, int(math.Round(float64(seconds)/4/ingestPassSeconds)))
}

// timed runs the fixed pass list, timing only the passes.
func (s *ingestState) timed(tr *tracer, passes int, ops *opLog) (*phase, error) {
	p := &phase{}
	for i := 0; i < passes; i++ {
		p.resume()
		p.records += s.pass(tr, i*len(s.streams), ops)
		p.pause()
		if err := s.prune(); err != nil {
			return nil, fmt.Errorf("pruning the store: %w", err)
		}
	}
	return p, nil
}

// layers measures the ingest path layer by layer: it runs the passes
// again with spans around the client's calls into the server package
// (dial, send, result), then replays the recorded streams through each
// layer of the data path alone. It fills the ingest layers' metrics into
// m and returns the ledger and the traced phase; the traced ops are
// added to ops.
func (st *ingestState) layers(cfg config, passes int, ops *opLog, m map[string]metric) (*ledger, *phase, error) {
	tr := newTracer()
	st.mu.Lock()
	st.retries = server.RetryStats{}
	st.mu.Unlock()
	shed0 := st.srv.Stats().ShedSessions + st.gw.Stats().ShedSessions
	rerouted0 := st.gw.Stats().ReroutedSessions
	traced := &opLog{}
	p, err := st.timed(tr, passes, traced)
	if err != nil {
		return nil, nil, err
	}
	ops.add(traced)
	if err := tr.dump(spanPath(cfg, "ingest")); err != nil {
		return nil, nil, err
	}
	tot, n := totals(tr.spans)
	recs := p.records
	sessions := n["ingest.session"]

	iso, err := isolate(st.streams, ingestWindow, filepath.Join(st.dir, "isolated"))
	if err != nil {
		return nil, nil, err
	}
	// The isolated costs are per record of the replayed job list, the
	// same records a pass streams, so they scale to the timed records.
	scale := func(d time.Duration) float64 { return perRecord(d, iso.records) }

	l := &ledger{workload: "ingest", cpu: perRecord(p.cpu, recs)}
	l.add("wire.encode", scale(iso.encode))
	l.add("gateway.relay", scale(iso.relay))
	l.add("wire.decode", scale(iso.decode))
	l.add("store.write", scale(iso.write))
	l.add("store.commit", scale(iso.commit))
	l.add("core.feed", scale(iso.session))
	l.add("core.finish", scale(iso.finish))

	set(m, "tempstream.session_ns_per_record", scale(iso.session))
	set(m, "core.finish_ns_per_record", perRecord(iso.finish, iso.analysed))
	set(m, "core.window_ratio", float64(iso.analysed)/float64(iso.records))
	set(m, "server.dial_ms", tot["server.dial"].Seconds()*1e3/float64(sessions))
	set(m, "server.send_ns_per_record", perRecord(tot["server.send"], recs))
	set(m, "server.result_wait_ms", tot["server.result_wait"].Seconds()*1e3/float64(sessions))
	st.mu.Lock()
	r := st.retries
	st.mu.Unlock()
	set(m, "server.retries_per_session", float64(r.Dials-int64(sessions))/float64(sessions))
	set(m, "server.shed", float64(st.srv.Stats().ShedSessions+st.gw.Stats().ShedSessions-shed0))
	set(m, "gateway.rerouted", float64(st.gw.Stats().ReroutedSessions-rerouted0))
	set(m, "wire.encode_ns_per_record", scale(iso.encode))
	set(m, "wire.decode_ns_per_record", scale(iso.decode))
	set(m, "wire.bytes_per_record", float64(iso.wireBytes)/float64(iso.records))
	set(m, "gateway.relay_ns_per_record", scale(iso.relay))
	set(m, "store.write_ns_per_record", scale(iso.write))
	set(m, "store.commit_ms", iso.commit.Seconds()*1e3/float64(iso.streams))
	set(m, "store.bytes_per_record", float64(iso.storeBytes)/float64(iso.records))
	return l, p, nil
}
