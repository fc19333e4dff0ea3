package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/server"
)

// BackendStats is one backend's row in the fleet view: the gateway's own
// routing counters plus the backend's last self-reported snapshot.
type BackendStats struct {
	Addr              string       `json:"addr"`
	Name              string       `json:"name,omitempty"`
	Circuit           CircuitState `json:"circuit"`
	CircuitError      string       `json:"circuit_error,omitempty"`
	CircuitOpens      int64        `json:"circuit_opens"`
	Draining          bool         `json:"draining,omitempty"`
	ActiveSessions    int          `json:"active_sessions"`
	RoutedSessions    int64        `json:"routed_sessions"`
	ReroutedSessions  int64        `json:"rerouted_sessions"`
	DeclinedSessions  int64        `json:"declined_sessions"`
	SecondsSinceProbe float64      `json:"seconds_since_probe,omitempty"`
	// From the backend's last successful probe.
	BackendSessions int     `json:"backend_active_sessions,omitempty"`
	TotalRecords    int64   `json:"total_records,omitempty"`
	RecordsPerSec   float64 `json:"records_per_sec,omitempty"`
}

// FleetStats is the gateway's aggregate view: per-backend health and
// throughput plus the gateway's own session counters.
type FleetStats struct {
	Name            string         `json:"name"`
	UptimeSeconds   float64        `json:"uptime_seconds"`
	HealthyBackends int            `json:"healthy_backends"`
	Backends        []BackendStats `json:"backends"`

	ActiveSessions    int   `json:"active_sessions"`
	ParkedSessions    int   `json:"parked_sessions"`
	TotalSessions     int64 `json:"total_sessions"`
	CompletedSessions int64 `json:"completed_sessions"`
	FailedSessions    int64 `json:"failed_sessions"`
	ShedSessions      int64 `json:"shed_sessions"`
	ReroutedSessions  int64 `json:"rerouted_sessions"`
	ResumedSessions   int64 `json:"resumed_sessions"`
	ExpiredSessions   int64 `json:"expired_sessions"`

	FleetTotalRecords  int64   `json:"fleet_total_records"`
	FleetRecordsPerSec float64 `json:"fleet_records_per_sec"`
}

// Stats snapshots the fleet.
func (g *Gateway) Stats() FleetStats {
	now := time.Now()
	st := FleetStats{
		Name:              g.cfg.Name,
		UptimeSeconds:     now.Sub(g.start).Seconds(),
		TotalSessions:     g.totalSessions.Load(),
		CompletedSessions: g.totalRelayedOK.Load(),
		FailedSessions:    g.totalFailed.Load(),
		ShedSessions:      g.totalShed.Load(),
		ReroutedSessions:  g.totalRerouted.Load(),
		ResumedSessions:   g.totalResumed.Load(),
		ExpiredSessions:   g.totalExpired.Load(),
	}
	st.ParkedSessions = g.parked.Len()
	g.mu.Lock()
	for _, b := range g.backends {
		state, lastErr, opens := b.br.current()
		row := BackendStats{
			Addr:             b.addr,
			Name:             b.name,
			Circuit:          state,
			CircuitError:     lastErr,
			CircuitOpens:     opens,
			Draining:         b.draining,
			ActiveSessions:   b.active,
			RoutedSessions:   b.routed,
			ReroutedSessions: b.rerouted,
			DeclinedSessions: b.declined,
		}
		if !b.lastProbe.IsZero() {
			row.SecondsSinceProbe = now.Sub(b.lastProbe).Seconds()
		}
		if ls := b.lastStats; ls != nil {
			row.BackendSessions = ls.ActiveSessions
			row.TotalRecords = ls.TotalRecords
			row.RecordsPerSec = ls.IngestRecsPerSec
		}
		st.ActiveSessions += b.active
		if state == CircuitClosed && !b.draining {
			st.HealthyBackends++
		}
		st.FleetTotalRecords += row.TotalRecords
		st.FleetRecordsPerSec += row.RecordsPerSec
		st.Backends = append(st.Backends, row)
	}
	g.mu.Unlock()
	sort.Slice(st.Backends, func(i, j int) bool { return st.Backends[i].Addr < st.Backends[j].Addr })
	return st
}

// AggregateStats renders the fleet as one server.Stats, so a probe
// request on the gateway's ingest port (server.Probe, the health check
// an upstream tsgate sends) sees the same shape a single tsserved would
// report.
func (g *Gateway) AggregateStats() server.Stats {
	fs := g.Stats()
	st := server.Stats{
		Name:             fs.Name,
		UptimeSeconds:    fs.UptimeSeconds,
		ActiveSessions:   fs.ActiveSessions,
		ParkedSessions:   fs.ParkedSessions,
		TotalSessions:    fs.TotalSessions,
		FailedSessions:   fs.FailedSessions,
		ShedSessions:     fs.ShedSessions,
		ResumedSessions:  fs.ResumedSessions,
		ExpiredSessions:  fs.ExpiredSessions,
		TotalRecords:     fs.FleetTotalRecords,
		IngestRecsPerSec: fs.FleetRecordsPerSec,
	}
	g.mu.Lock()
	for _, b := range g.backends {
		if ls := b.lastStats; ls != nil {
			st.MaxSessions += ls.MaxSessions
		}
	}
	g.mu.Unlock()
	return st
}

// StatsHandler serves the FleetStats snapshot as JSON at /stats;
// daemons mount it on a shared scrape mux (obs.NewMux).
func (g *Gateway) StatsHandler() http.Handler {
	return obs.JSONHandler(func() any { return g.Stats() })
}

// BackendsHandler serves the membership admin endpoint at /backends:
//
//	GET  — the current membership, one address per line.
//	POST — replace the membership; body is addresses separated by commas
//	       or newlines. Removed backends drain, added ones warm in.
//	       Responds with the resulting diff.
func (g *Gateway) BackendsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			addrs := g.BackendAddrs()
			sort.Strings(addrs)
			w.Header().Set("Content-Type", "text/plain")
			for _, a := range addrs {
				fmt.Fprintln(w, a)
			}
		case http.MethodPost:
			body, err := readBody(r, proto.MaxLine)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			addrs := SplitBackendList(string(body))
			if len(addrs) == 0 {
				http.Error(w, "empty backend list", http.StatusBadRequest)
				return
			}
			added, removed := g.SetBackends(addrs)
			sort.Strings(added)
			sort.Strings(removed)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"backends": addrs,
				"added":    added,
				"removed":  removed,
			})
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

func readBody(r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return body, nil
}

// SplitBackendList parses a backend list from a flag value, config file,
// or admin request body: addresses separated by commas, whitespace, or
// newlines; blank entries and #-comment lines are dropped.
func SplitBackendList(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, f := range strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\r'
		}) {
			if f != "" && !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}
