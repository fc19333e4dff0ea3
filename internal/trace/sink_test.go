package trace

import (
	"reflect"
	"testing"
)

// recordingSink captures everything it is fed, for combinator tests.
type recordingSink struct {
	misses   []Miss
	header   Header
	finished int
}

func (r *recordingSink) AppendBatch(ms []Miss) { r.misses = append(r.misses, ms...) }
func (r *recordingSink) Finish(h Header)       { r.header = h; r.finished++ }

func TestTraceIsSink(t *testing.T) {
	var tr Trace
	var s Sink = &tr
	s.AppendBatch([]Miss{{Addr: 1 << 6, CPU: 2}})
	s.AppendBatch([]Miss{{Addr: 2 << 6, CPU: 3}})
	s.Finish(Header{Misses: 2, Instructions: 5000, CPUs: 4})
	if tr.Len() != 2 || tr.Instructions != 5000 || tr.CPUs != 4 {
		t.Errorf("trace after sink feed: len=%d instr=%d cpus=%d", tr.Len(), tr.Instructions, tr.CPUs)
	}
	if tr.MPKI() != 0.4 {
		t.Errorf("MPKI = %v, want 0.4", tr.MPKI())
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	var tr Trace
	tee := Tee{a, b, &tr}
	want := []Miss{{Addr: 10 << 6}, {Addr: 11 << 6, CPU: 1}, {Addr: 10 << 6, Class: Coherence}}
	tee.AppendBatch(want[:1])
	tee.AppendBatch(want[1:])
	h := Header{Misses: len(want), Instructions: 999, CPUs: 2}
	tee.Finish(h)
	for i, s := range []*recordingSink{a, b} {
		if !reflect.DeepEqual(s.misses, want) {
			t.Errorf("sink %d records = %v, want %v", i, s.misses, want)
		}
		if s.header != h || s.finished != 1 {
			t.Errorf("sink %d header = %+v (finished %d), want %+v", i, s.header, s.finished, h)
		}
	}
	if !reflect.DeepEqual(tr.Misses, want) || tr.Instructions != 999 {
		t.Errorf("materializing leg diverged: %v", tr.Misses)
	}
}

func TestHeaderMPKI(t *testing.T) {
	if got := (Header{Misses: 30, Instructions: 10000}).MPKI(); got != 3 {
		t.Errorf("MPKI = %v, want 3", got)
	}
	if got := (Header{Misses: 30}).MPKI(); got != 0 {
		t.Errorf("zero-instruction MPKI = %v, want 0", got)
	}
}

func TestDiscard(t *testing.T) {
	var d Discard
	d.AppendBatch([]Miss{{Addr: 1}})
	d.Finish(Header{Misses: 1})
}
