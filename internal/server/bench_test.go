package server_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/trace"
)

// BenchmarkIngestServer measures end-to-end ingest throughput over
// loopback: four concurrent clients stream pre-generated classified
// misses through the wire protocol into bounded analysis sessions, the
// tsload shape without simulator cost. The records/sec metric lands in
// the BENCH_<n>.json trajectory artifact (CI runs this in the -short
// smoke pass).
func BenchmarkIngestServer(b *testing.B) {
	const (
		clients  = 4
		nRecords = 100_000
		window   = 50_000
	)
	srv, err := server.Listen("127.0.0.1:0", server.Config{})
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	streams := make([][]trace.Miss, clients)
	for c := range streams {
		streams[c] = synthMisses(nRecords, 4, int64(c+1))
	}
	req := server.Request{Label: "bench", Analysis: core.Options{MaxMisses: window}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cs, err := server.DialResilient(addr, 4, req, server.RetryPolicy{MaxAttempts: 1})
				if err != nil {
					b.Errorf("dial: %v", err)
					return
				}
				// Frame-sized batches: the fused ingest shape, paying sink
				// dispatch once per wire frame on the client exactly as the
				// server's decoder does per decoded frame.
				for ms := streams[c]; len(ms) > 0; {
					n := min(4096, len(ms))
					cs.AppendBatch(ms[:n])
					ms = ms[n:]
				}
				cs.Finish(trace.Header{Misses: nRecords, Instructions: nRecords * 100, CPUs: 4})
				if _, err := cs.Result(); err != nil {
					b.Errorf("Result: %v", err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	total := float64(b.N) * clients * nRecords
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkChaosIngest is the same four-client loopback ingest with
// seeded fault injection on every client connection and resilient
// sessions absorbing the damage: it prices the resume protocol — replay,
// reconnect backoff, park/resume on the server — under a realistic fault
// rate (roughly one reset per ~150 KB of wire, a couple per session).
// CI's -short bench smoke records its records/sec next to the fault-free
// baseline in the BENCH_<n>.json trajectory.
func BenchmarkChaosIngest(b *testing.B) {
	const (
		clients  = 4
		nRecords = 100_000
		window   = 50_000
	)
	srv, err := server.Listen("127.0.0.1:0", server.Config{ResumeGrace: 30 * time.Second})
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	streams := make([][]trace.Miss, clients)
	for c := range streams {
		streams[c] = synthMisses(nRecords, 4, int64(c+1))
	}
	req := server.Request{Label: "chaos-bench", Analysis: core.Options{MaxMisses: window}}
	spec := faultnet.Spec{Seed: 17, ResetEvery: 150_000, PartialWrites: true}
	var connIdx atomic.Int64
	var resumes atomic.Int64

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				pol := server.RetryPolicy{
					// Sub-millisecond backoff keeps the metric dominated by
					// stream+replay cost, not sleeps; the 4-frame ring keeps
					// in-flight data below the mean reset distance so every
					// reconnect makes forward progress.
					BaseDelay:  time.Millisecond,
					MaxDelay:   5 * time.Millisecond,
					RingFrames: 4,
					Seed:       int64(c + 1),
					Dial: func(a string) (net.Conn, error) {
						conn, err := net.DialTimeout("tcp", a, 5*time.Second)
						if err != nil {
							return nil, err
						}
						return faultnet.WrapConn(conn, spec, connIdx.Add(1)), nil
					},
				}
				rs, err := server.DialResilient(addr, 4, req, pol)
				if err != nil {
					b.Errorf("dial: %v", err)
					return
				}
				for _, m := range streams[c] {
					rs.Append(m)
				}
				rs.Finish(trace.Header{Misses: nRecords, Instructions: nRecords * 100, CPUs: 4})
				if _, err := rs.Result(); err != nil {
					b.Errorf("Result: %v (stats %+v)", err, rs.Stats())
				}
				st := rs.Stats()
				resumes.Add(st.Resumes + st.Restarts)
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	total := float64(b.N) * clients * nRecords
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(resumes.Load())/float64(b.N), "resumes/op")
}
