// Command tsserved is the miss-stream ingest and analysis daemon: it
// accepts wire-format classified miss streams (internal/wire) over TCP,
// binds each connection's session to a pooled incremental analyzer
// (tempstream.Session), and answers with the session's temporal-stream
// analysis. Per-session memory stays O(analysis window) no matter how
// long a client streams; concurrent sessions are bounded, with further
// sessions queuing behind the framed protocol's natural backpressure.
//
// Usage:
//
//	tsserved [-addr :7465] [-stats :7466] [-max-sessions 16] [-max-window N]
//	         [-max-queue N] [-resume-grace 30s] [-archive DIR] [-chaos SPEC]
//	         [-config FILE] [-log-format text|json] [-log-level LEVEL] [-pprof]
//
// The -stats listener serves a JSON snapshot on /stats (aggregate ingest
// counters plus one row per session), Prometheus text-format metrics on
// /metrics, and — with -pprof — the net/http/pprof profiles under
// /debug/pprof/. Structured logs (slog) go to stderr in -log-format at
// -log-level; stdout carries only the readiness lines. -config loads
// key=value or JSON flag defaults from a file; explicit command-line
// flags win. SIGINT/SIGTERM drain gracefully: the listener closes,
// in-flight and queued sessions run to completion, the daemon prints a
// "drained:" summary, and the process exits 0. Sessions still running
// after -drain-timeout are cut off (their connections closed) and the
// process exits 1. tsgate shares all of this — the flags, the readiness
// and summary lines, the drain — through internal/cli/daemon, and
// both daemons accept, negotiate and drain connections through the same
// front door (proto.Front, server.ReadRequest).
//
// Overload is shed explicitly: beyond -max-queue waiting sessions, new
// arrivals are refused immediately with a machine-readable busy code and
// a retry hint instead of queueing. Clients speaking the resumable
// protocol (server.DialResilient, tsload's client) may reconnect after
// a mid-stream failure and continue the same analysis; the interrupted
// session's state is parked for -resume-grace.
//
// -archive DIR tees every accepted session into the managed archive
// store at DIR (internal/store): the exact record stream each analysis
// consumed is re-encoded to a TSW1 archive and committed to the store's
// manifest when the session completes, so cmd/tsquery can re-run or
// extend any historical analysis offline. Archiving is best-effort —
// a store failure is logged and the live session proceeds — and the
// store's occupancy metrics (store_archives, store_bytes,
// store_compactions_total) join the /metrics exposition.
//
// -chaos injects deterministic transport faults (resets, corruption,
// partial writes, stalls; see internal/faultnet) into every accepted
// connection — the harness the end-to-end chaos suite drives to prove
// the resilient client converges. Never enable it in production.
//
// Drive it with cmd/tsload (a simulated fleet of clients) or any producer
// that speaks the wire format — e.g. `tstrace -record` archives replayed
// by a thin client.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/cli"
	"repro/internal/cli/daemon"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	d := daemon.New("tsserved")
	addr := flag.String("addr", ":7465", "ingest listen address")
	name := flag.String("name", "", "instance name reported in stats (useful behind tsgate)")
	maxSessions := flag.Int("max-sessions", 16, "concurrent analysis sessions; further sessions queue")
	maxWindow := flag.Int("max-window", 0, "per-session analysis window ceiling in misses (0 = analysis default)")
	maxQueue := flag.Int("max-queue", 0, "waiting sessions before new arrivals are shed with busy (0 = 4*max-sessions, negative = no explicit shed)")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long a session may wait for a slot before failing busy (0 = 30s)")
	idleTimeout := flag.Duration("idle-timeout", 0, "max silence between a connection's reads before it is dropped (0 = 2m)")
	resumeGrace := flag.Duration("resume-grace", 0, "how long an interrupted resumable session's state is parked for resumption (0 = 30s)")
	archiveDir := flag.String("archive", "", "tee every accepted session into the managed archive store at this directory (query it with tsquery)")
	chaos := flag.String("chaos", "", "deterministic fault-injection spec for accepted connections, e.g. seed=7,reset=262144,partial=1 (testing only)")
	d.Parse()

	if err := cli.Positive("-max-sessions", *maxSessions); err != nil {
		d.Fatal(err)
	}
	if err := cli.NonNegative("-max-window", *maxWindow); err != nil {
		d.Fatal(err)
	}
	spec, err := faultnet.ParseSpec(*chaos)
	if err != nil {
		d.Fatal(err)
	}

	var archive *store.Store
	if *archiveDir != "" {
		var damaged []error
		archive, damaged, err = store.Open(*archiveDir)
		if err != nil {
			d.Fatal(err)
		}
		for _, e := range damaged {
			fmt.Fprintf(os.Stderr, "tsserved: archive store: %v (entry excluded)\n", e)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		d.Fatal(err)
	}
	srv := server.NewServer(faultnet.Wrap(ln, spec), server.Config{
		Name:         *name,
		MaxSessions:  *maxSessions,
		MaxWindow:    *maxWindow,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		IdleTimeout:  *idleTimeout,
		ResumeGrace:  *resumeGrace,
		Archive:      archive,
		Logger:       d.Logger,
	})
	if archive != nil {
		// The store's families join the server registry, so the one
		// /metrics surface carries warehouse occupancy next to ingest.
		archive.RegisterMetrics(srv.Registry())
		fmt.Printf("tsserved: archiving sessions to %s (%d archives, %d bytes)\n",
			archive.Dir(), archive.Archives(), archive.Bytes())
	}
	if spec.Enabled() {
		fmt.Printf("tsserved: CHAOS fault injection on every connection: %s\n", spec)
	}
	d.Run(srv, fmt.Sprintf("(max-sessions=%d)", *maxSessions), nil, func() string {
		st := srv.Stats()
		return fmt.Sprintf("%d sessions (%d failed, %d shed, %d resumed), %d records ingested",
			st.TotalSessions, st.FailedSessions, st.ShedSessions, st.ResumedSessions, st.TotalRecords)
	})
}
