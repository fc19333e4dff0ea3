package gateway

import (
	"time"

	"repro/internal/obs"
)

// circuitStateValue encodes a breaker state as a gauge: 0 closed,
// 1 half-open, 2 open — ordered by severity so alerting thresholds
// read naturally (> 0 means "not fully healthy").
func circuitStateValue(st CircuitState) float64 {
	switch st {
	case CircuitClosed:
		return 0
	case CircuitHalfOpen:
		return 1
	default:
		return 2
	}
}

// gatewayMetrics is the gateway's observability surface. Like the
// server's, nearly everything is a scrape-time func over the counters
// and per-backend state the gateway already keeps — a scrape takes g.mu
// once per labeled family and reads the same fields Stats does. The one
// owned instrument is the probe latency histogram: latency exists only
// in the moment the probe returns, so the prober must record it.
type gatewayMetrics struct {
	reg *obs.Registry

	// probeSeconds is the health-probe round-trip per backend — the
	// cheapest continuous signal of a backend's responsiveness, observed
	// even while no session traffic flows.
	probeSeconds *obs.HistogramVec
}

// newGatewayMetrics registers the tsgate_* families against g. Called
// from New before the probers start, so the first probe can already
// observe its latency.
func newGatewayMetrics(g *Gateway) *gatewayMetrics {
	reg := obs.NewRegistry()
	m := &gatewayMetrics{reg: reg}

	reg.CounterFunc("tsgate_sessions_total",
		"Client sessions accepted (excluding health probes).",
		func() float64 { return float64(g.totalSessions.Load()) })
	reg.CounterFunc("tsgate_sessions_completed_total",
		"Sessions relayed to a successful backend response.",
		func() float64 { return float64(g.totalRelayedOK.Load()) })
	reg.CounterFunc("tsgate_sessions_failed_total",
		"Sessions that ended in an error response to the client.",
		func() float64 { return float64(g.totalFailed.Load()) })
	reg.CounterFunc("tsgate_sessions_shed_total",
		"Sessions shed because no backend could take them (or the gateway was draining).",
		func() float64 { return float64(g.totalShed.Load()) })
	reg.CounterFunc("tsgate_sessions_rerouted_total",
		"Backend failovers: sessions moved to a survivor after their backend failed.",
		func() float64 { return float64(g.totalRerouted.Load()) })
	reg.CounterFunc("tsgate_sessions_parked_total",
		"Interrupted resumable sessions parked awaiting their client.",
		func() float64 { return float64(g.totalParked.Load()) })
	reg.CounterFunc("tsgate_sessions_resumed_total",
		"Parked sessions successfully resumed.",
		func() float64 { return float64(g.totalResumed.Load()) })
	reg.CounterFunc("tsgate_sessions_expired_total",
		"Parked sessions discarded because their grace window lapsed.",
		func() float64 { return float64(g.totalExpired.Load()) })

	reg.GaugeFunc("tsgate_sessions_parked",
		"Sessions currently parked awaiting resumption.",
		func() float64 { return float64(g.parked.Len()) })
	reg.GaugeFunc("tsgate_backends",
		"Backends in the membership (including draining ones).",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.backends))
		})
	reg.GaugeFunc("tsgate_healthy_backends",
		"Backends currently routable (circuit closed, not draining).",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			n := 0
			for _, b := range g.backends {
				st, _, _ := b.br.current()
				if st == CircuitClosed && !b.draining {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("tsgate_replay_ring_frames",
		"Data frames currently retained across all replay rings (live and parked sessions).",
		func() float64 { return float64(g.ringFrames.Load()) })
	reg.GaugeFunc("tsgate_uptime_seconds",
		"Seconds since the gateway started.",
		func() float64 { return time.Since(g.start).Seconds() })

	// Per-backend families. Each collect takes g.mu once and emits one
	// sample per backend, labeled by ingest address — the stable
	// identity; the probed Name is display-only and can collide.
	backendLabel := []string{"backend"}
	eachBackend := func(fn func(emit obs.Emit, addr string, b *backend)) func(obs.Emit) {
		return func(emit obs.Emit) {
			g.mu.Lock()
			defer g.mu.Unlock()
			for addr, b := range g.backends {
				fn(emit, addr, b)
			}
		}
	}
	reg.GaugeVecFunc("tsgate_backend_circuit_state",
		"Circuit breaker state per backend: 0 closed, 1 half-open, 2 open.",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			st, _, _ := b.br.current()
			emit([]string{addr}, circuitStateValue(st))
		}))
	reg.GaugeVecFunc("tsgate_backend_active_sessions",
		"Gateway sessions currently attached per backend.",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			emit([]string{addr}, float64(b.active))
		}))
	reg.GaugeVecFunc("tsgate_backend_draining",
		"1 when the backend is draining (removed from membership, finishing sessions).",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			v := 0.0
			if b.draining {
				v = 1
			}
			emit([]string{addr}, v)
		}))
	reg.CounterVecFunc("tsgate_backend_routed_total",
		"Sessions ever attached per backend (failover re-attachments re-count).",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			emit([]string{addr}, float64(b.routed))
		}))
	reg.CounterVecFunc("tsgate_backend_rerouted_total",
		"Sessions moved off this backend after it failed mid-stream.",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			emit([]string{addr}, float64(b.rerouted))
		}))
	reg.CounterVecFunc("tsgate_backend_declined_total",
		"Busy/draining answers from this backend that moved a session elsewhere.",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			emit([]string{addr}, float64(b.declined))
		}))
	reg.CounterVecFunc("tsgate_backend_circuit_opens_total",
		"Times this backend's circuit opened (probe or session failures).",
		backendLabel, eachBackend(func(emit obs.Emit, addr string, b *backend) {
			_, _, opens := b.br.current()
			emit([]string{addr}, float64(opens))
		}))

	m.probeSeconds = reg.HistogramVec("tsgate_probe_seconds",
		"Health-probe round-trip per backend (success and failure).",
		nil, "backend")
	return m
}

// Registry exposes the gateway's metric families for mounting on a
// scrape mux (obs.NewMux).
func (g *Gateway) Registry() *obs.Registry { return g.metrics.reg }
