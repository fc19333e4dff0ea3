package gateway_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/trace"
)

// BenchmarkGatewayIngest measures the fleet scaling curve: eight
// concurrent clients stream pre-generated misses through one tsgate into
// 1, 2, or 3 tsserved backends, all over loopback. The records/sec
// metric lands in the BENCH_<n>.json trajectory next to the single-node
// BenchmarkIngestServer baseline, pricing the gateway hop and showing
// how throughput scales with fleet width (CI runs this in the -short
// smoke pass).
func BenchmarkGatewayIngest(b *testing.B) {
	for _, nBackends := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("backends=%d", nBackends), func(b *testing.B) {
			benchGatewayIngest(b, nBackends)
		})
	}
}

func benchGatewayIngest(b *testing.B, nBackends int) {
	const (
		clients  = 8
		nRecords = 50_000
		window   = 25_000
	)
	var addrs []string
	for i := 0; i < nBackends; i++ {
		srv, err := server.Listen("127.0.0.1:0", server.Config{Name: fmt.Sprintf("b%d", i+1)})
		if err != nil {
			b.Fatalf("backend Listen: %v", err)
		}
		go srv.Serve()
		defer srv.Close()
		addrs = append(addrs, srv.Addr().String())
	}
	gw, err := gateway.Listen("127.0.0.1:0", gateway.Config{
		Backends:      addrs,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatalf("gateway.Listen: %v", err)
	}
	go gw.Serve()
	defer gw.Close()
	deadline := time.Now().Add(10 * time.Second)
	for gw.Stats().HealthyBackends < nBackends {
		if time.Now().After(deadline) {
			b.Fatalf("backends never became healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	addr := gw.Addr().String()

	streams := make([][]trace.Miss, clients)
	for c := range streams {
		streams[c] = synthMisses(nRecords, 4, int64(c+1))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				req := server.Request{
					Label:    fmt.Sprintf("bench-%d", c),
					Analysis: core.Options{MaxMisses: window},
				}
				cs, err := server.DialResilient(addr, 4, req, server.RetryPolicy{MaxAttempts: 1})
				if err != nil {
					b.Errorf("dial: %v", err)
					return
				}
				for _, m := range streams[c] {
					cs.Append(m)
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
