package main

import (
	"fmt"
	"path/filepath"
)

// streamChunk matches tempstream.Session's own Append buffer (records),
// so the traced drives hand Sessions chunks at the points the untraced
// drive would flush them.
const streamChunk = 32768

// layerMetrics is the per-layer metric set every traced run prints. A
// layer that does not run in a workload reports 0. Every *_ns_per_record
// metric is divided by the workload's end-to-end records (the records
// behind records_per_s), so the ledger's rows add up — except
// core.finish_ns_per_record, which is per analysed record.
var layerMetrics = []struct{ name, unit string }{
	{"workload.sim_ns_per_record", "ns/record"},
	{"workload.simulated_per_record", "count"},
	{"par.busy_workers", "workers"},
	{"tempstream.session_ns_per_record", "ns/record"},
	{"core.finish_ns_per_record", "ns/record"},
	{"core.window_ratio", "ratio"},
	{"server.dial_ms", "ms"},
	{"server.send_ns_per_record", "ns/record"},
	{"server.result_wait_ms", "ms"},
	{"server.retries_per_session", "count"},
	{"server.shed", "count"},
	{"gateway.rerouted", "count"},
	{"wire.encode_ns_per_record", "ns/record"},
	{"wire.decode_ns_per_record", "ns/record"},
	{"wire.bytes_per_record", "B/record"},
	{"gateway.relay_ns_per_record", "ns/record"},
	{"store.write_ns_per_record", "ns/record"},
	{"store.commit_ms", "ms"},
	{"store.bytes_per_record", "B/record"},
	{"store.open_ms", "ms"},
	{"store.stream_ns_per_record", "ns/record"},
	{"store.delivered_ratio", "ratio"},
	{"ledger.unattributed_ns_per_record", "ns/record"},
	{"tracing.overhead_ratio", "ratio"},
}

func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{0, lm.unit}
	}
	return m
}

// set stores a per-layer value under its declared unit.
func set(m map[string]metric, name string, v float64) {
	lm, ok := m[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	lm.Value = v
	m[name] = lm
}

// finishLedger fills the two metrics every traced run shares: the
// ledger's unattributed cost, and the tracing overhead — how much slower
// the traced phase ran than the untraced one, in records per second.
func finishLedger(m map[string]metric, l *ledger, untraced, traced *phase) {
	set(m, "ledger.unattributed_ns_per_record", l.unattributed())
	u := float64(untraced.records) / untraced.wall.Seconds()
	t := float64(traced.records) / traced.wall.Seconds()
	set(m, "tracing.overhead_ratio", u/t-1)
}

// spanPath is where a traced run writes the spans of one of its parts.
func spanPath(cfg config, part string) string {
	return filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d-%s.jsonl", cfg.workload, cfg.seed, part))
}
