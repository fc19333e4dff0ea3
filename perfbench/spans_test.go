package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},  // overlaps the first child
		{Name: "child", Start: 90, End: 130, Parent: 0}, // runs past its parent
		{Name: "grandchild", Start: 15, End: 35, Parent: 1},
		{Name: "open", Start: 50, End: -1, Parent: 0}, // never closed: ignored
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the op: 60 of its 100.
	if got := self["op"]; got != 40*time.Nanosecond {
		t.Errorf("op self = %v, want 40ns", got)
	}
	// Each child loses only its own children: 30-20 + 30 + 40.
	if got := self["child"]; got != 80*time.Nanosecond {
		t.Errorf("child self = %v, want 80ns", got)
	}
	if got := self["grandchild"]; got != 20*time.Nanosecond {
		t.Errorf("grandchild self = %v, want 20ns", got)
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span contributed self time")
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
