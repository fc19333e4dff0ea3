// Command tsgate is the ingest fleet gateway: it fronts N tsserved
// backends, consistent-hash-routing each new session to a healthy
// backend (bounded load), health-checking every backend through the
// ingest-port probe feeding a per-backend circuit breaker, and relaying
// each session's wire stream frame by frame while holding the frames in
// a replay ring — when a backend dies mid-session the session restarts
// on a survivor from frame zero, invisible to the client. When every
// backend is down or saturated, arrivals are shed with the protocol's
// typed busy/draining codes and an honest retry hint.
//
// Usage:
//
//	tsgate -backends host1:7465,host2:7465 [-addr :7464] [-stats :7467]
//	       [-backends-file PATH] [-name tsgate] [-probe-interval 2s]
//	       [-load-factor 1.25] [-ring-frames 4096] [-resume-grace 30s]
//	       [-config FILE] [-log-format text|json] [-log-level LEVEL] [-pprof]
//
// Clients speak to tsgate exactly as they would to a single tsserved —
// tsload needs only the address swapped. The -stats listener serves the
// fleet view on /stats (per-backend circuit state, session counts,
// records/sec), Prometheus text-format metrics on /metrics, membership
// admin on /backends (GET lists, POST replaces; removed backends drain,
// added ones warm in), and — with -pprof — net/http/pprof under
// /debug/pprof/. Structured logs (slog) go to stderr in -log-format at
// -log-level; stdout carries only the readiness lines. -config loads
// key=value or JSON flag defaults from a file; explicit command-line
// flags win. SIGHUP re-reads -backends-file for the same live membership
// edit. SIGINT/SIGTERM drain as tsserved's do (internal/cli/daemon):
// in-flight sessions complete, a fleet "drained:" summary is printed,
// and the process exits 0; sessions still running after -drain-timeout
// are cut off — their client connections and backend legs closed,
// neither rerouted nor parked — and the process exits 1.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli/daemon"
	"repro/internal/gateway"
)

func main() {
	d := daemon.New("tsgate")
	addr := flag.String("addr", ":7464", "client-facing ingest listen address")
	backends := flag.String("backends", "", "comma-separated backend ingest addresses")
	backendsFile := flag.String("backends-file", "", "file listing backend addresses (one per line, # comments); SIGHUP re-reads it")
	name := flag.String("name", "tsgate", "gateway name: the Via label on forwarded sessions and the stats identity")
	probeInterval := flag.Duration("probe-interval", 0, "health-check period per backend (0 = 2s)")
	probeTimeout := flag.Duration("probe-timeout", 0, "health-check probe timeout (0 = 2s)")
	loadFactor := flag.Float64("load-factor", 0, "bounded-load cap: skip a backend at ceil(factor*mean) active sessions (0 = 1.25)")
	ringFrames := flag.Int("ring-frames", 0, "per-session replay ring, in data frames; beyond it a session cannot fail over (0 = 4096)")
	resumeGrace := flag.Duration("resume-grace", 0, "how long an interrupted resumable session's state is parked for resumption; keep below the backends' idle timeout (0 = 30s)")
	retryHint := flag.Duration("retry-hint", 0, "retry_after_ms attached to shed responses (0 = 500ms)")
	idleTimeout := flag.Duration("idle-timeout", 0, "max silence between a client connection's reads before it is dropped (0 = 2m)")
	d.Parse()
	if *backends == "" && *backendsFile == "" {
		d.Fatal(fmt.Errorf("no backends: pass -backends or -backends-file"))
	}

	loadMembership := func() ([]string, error) {
		addrs := gateway.SplitBackendList(*backends)
		if *backendsFile != "" {
			body, err := os.ReadFile(*backendsFile)
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, gateway.SplitBackendList(string(body))...)
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("membership is empty")
		}
		return addrs, nil
	}
	members, err := loadMembership()
	if err != nil {
		d.Fatal(err)
	}

	gw, err := gateway.Listen(*addr, gateway.Config{
		Name:          *name,
		Backends:      members,
		LoadFactor:    *loadFactor,
		RingFrames:    *ringFrames,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		RetryHint:     *retryHint,
		ResumeGrace:   *resumeGrace,
		IdleTimeout:   *idleTimeout,
		Logger:        d.Logger,
	})
	if err != nil {
		d.Fatal(err)
	}

	// SIGHUP re-reads the membership; removed backends drain, added ones
	// warm in behind a probe.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			members, err := loadMembership()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tsgate: SIGHUP reload failed: %v\n", err)
				continue
			}
			added, removed := gw.SetBackends(members)
			fmt.Printf("tsgate: membership reloaded: %d backends (+%d, -%d)\n",
				len(members), len(added), len(removed))
		}
	}()

	d.Run(gw, fmt.Sprintf("(backends=%d)", len(members)),
		map[string]http.Handler{"/backends": gw.BackendsHandler()}, func() string {
			st := gw.Stats()
			return fmt.Sprintf("%d sessions (%d completed, %d failed, %d shed, %d rerouted, %d resumed) across %d backends",
				st.TotalSessions, st.CompletedSessions, st.FailedSessions, st.ShedSessions,
				st.ReroutedSessions, st.ResumedSessions, len(st.Backends))
		})
}
