package main

import (
	"math"
	"testing"
)

func TestLedgerAddsUpToCPU(t *testing.T) {
	l := &ledger{workload: "ingest", cpu: 200}
	l.add("wire.encode", 30)
	l.add("wire.decode", 20)
	l.add("gateway.relay", 10)
	l.add("core.finish", 40)
	if got := l.attributed(); got != 100 {
		t.Fatalf("attributed = %v, want 100", got)
	}
	if got := l.unattributed(); got != 100 {
		t.Fatalf("unattributed = %v, want 100", got)
	}
	if got := l.attributed() + l.unattributed(); math.Abs(got-l.cpu) > 1e-9 {
		t.Fatalf("layers + unattributed = %v, want cpu %v", got, l.cpu)
	}
	if got := l.share("wire", "gateway"); got != 60 {
		t.Fatalf("data-path share = %v, want 60", got)
	}
	if got := l.largest(); got != "wire" {
		t.Fatalf("largest module = %q, want wire (50 against core's 40)", got)
	}
}

func TestLedgerUnattributedMayBeNegative(t *testing.T) {
	// Span walls include time a layer waited, so layers can exceed CPU.
	l := &ledger{cpu: 100}
	l.add("workload.sim", 80)
	l.add("core.finish", 40)
	if got := l.unattributed(); got != -20 {
		t.Fatalf("unattributed = %v, want -20", got)
	}
	if got := l.largest(); got != "workload" {
		t.Fatalf("largest = %q, want workload", got)
	}
}
