package main

import (
	"fmt"
	"strings"
)

// ledger sets the layer costs of one traced run beside its end-to-end
// CPU cost, all in ns per end-to-end record. Rows are named by the module
// doing the work: the tempstream.Session span is the row "core.feed",
// since a Session's Append/AppendBatch/Finish is the analyzer's feed
// (plus, in sweep, the kept-trace copy). Whatever the layers do not
// account for is reported as unattributed, not dropped, so
// attributed + unattributed == cpu by construction; the unattributed
// part may be negative when span walls include time a layer waited.
type ledger struct {
	workload string
	cpu      float64 // process user+sys CPU over the traced phase, ns/record
	rows     []ledgerRow
}

type ledgerRow struct {
	layer string
	ns    float64
}

func (l *ledger) add(layer string, ns float64) { l.rows = append(l.rows, ledgerRow{layer, ns}) }

func (l *ledger) attributed() float64 {
	var s float64
	for _, r := range l.rows {
		s += r.ns
	}
	return s
}

func (l *ledger) unattributed() float64 { return l.cpu - l.attributed() }

// share returns the summed cost of the rows whose layer has one of the
// given module prefixes ("wire", "core", ...).
func (l *ledger) share(modules ...string) float64 {
	var s float64
	for _, r := range l.rows {
		for _, m := range modules {
			if strings.HasPrefix(r.layer, m+".") {
				s += r.ns
				break
			}
		}
	}
	return s
}

// largest returns the module ("workload", "core", ...) with the largest
// summed cost.
func (l *ledger) largest() string {
	sums := map[string]float64{}
	var order []string
	for _, r := range l.rows {
		m, _, _ := strings.Cut(r.layer, ".")
		if _, ok := sums[m]; !ok {
			order = append(order, m)
		}
		sums[m] += r.ns
	}
	best := ""
	for _, m := range order {
		if best == "" || sums[m] > sums[best] {
			best = m
		}
	}
	return best
}

// lines renders the ledger for the run's informational output.
func (l *ledger) lines() []string {
	out := []string{fmt.Sprintf("ledger %s: ns/record per layer (layers + unattributed = cpu_ns_per_record)", l.workload)}
	for _, r := range l.rows {
		out = append(out, fmt.Sprintf("ledger   %-34s %10.1f", r.layer, r.ns))
	}
	out = append(out,
		fmt.Sprintf("ledger   %-34s %10.1f", "= attributed", l.attributed()),
		fmt.Sprintf("ledger   %-34s %10.1f", "+ unattributed", l.unattributed()),
		fmt.Sprintf("ledger   %-34s %10.1f", "= cpu_ns_per_record", l.cpu),
		fmt.Sprintf("ledger   largest module: %s", l.largest()))
	return out
}
