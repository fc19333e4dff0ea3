// Package sinktest is the reusable conformance harness for trace.Sink
// implementations: it drives a deterministic miss sequence followed by
// exactly one Finish into the sink under test, and — when the
// implementation can expose what it consumed — verifies that every record
// arrived, in order, and that exactly one header was folded.
//
// Sinks are the composition point of the streaming data path, so every
// implementation (combinators like Tee, codecs like wire.Encoder, the
// analysis sessions, the server's counting sinks) should pass this
// harness; each package applies it in its own tests.
package sinktest

import (
	"testing"

	"repro/internal/trace"
)

// Observed is what a sink factory reports after the drive: the records
// the sink consumed (in order) and every header it received. A nil
// records slice with ok=false means the sink is observationally blind
// (e.g. trace.Discard); the harness then only checks that the drive
// completes without panicking.
type Observed struct {
	Misses   []trace.Miss
	Finishes []trace.Header
}

// Factory builds one sink instance for a conformance round and returns
// the sink plus an observe function called after the drive. observe may
// be nil for blind sinks.
type Factory func() (s trace.Sink, observe func() (Observed, bool))

// Misses returns the harness's deterministic drive sequence: n records
// with block-aligned addresses, rotating CPUs, and every class/supplier
// combination.
func Misses(n, cpus int) []trace.Miss {
	out := make([]trace.Miss, n)
	// An LCG keeps the sequence deterministic without importing math/rand;
	// addresses mix local strides with jumps so delta codecs are honestly
	// exercised.
	state := uint64(0x2545F4914F6CDD1D)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		block := (uint64(i) + state>>40) & (1<<22 - 1)
		out[i] = trace.Miss{
			Addr:     block << 6,
			Func:     trace.FuncID(i % 37),
			CPU:      uint8(i % cpus),
			Class:    trace.MissClass(i % int(trace.NumMissClasses)),
			Supplier: trace.Supplier(i % int(trace.NumSuppliers)),
		}
	}
	return out
}

// Header returns the drive's end-of-stream header for n records.
func Header(n, cpus int) trace.Header {
	return trace.Header{Misses: n, Instructions: uint64(n) * 250, CPUs: cpus}
}

// Run drives the conformance sequence into fresh sinks from the factory,
// one drive shape per subtest, and checks the Sink contract after each:
//
//   - ordering: the observed records are exactly the driven ones, in
//     trace order, however the stream was split into chunks;
//   - exactly-one-Finish: the sink saw one Finish, after every chunk,
//     carrying the driven header;
//   - borrowing: every chunk is a scratch copy clobbered right after
//     the call, so a sink that retains the borrowed slice fails loudly.
//
// The shapes are stream (one record per chunk, the finest split),
// one-batch (the whole sequence in one chunk), interleave (uneven
// chunks, single records and empty chunks mixed, so chunk edges drift
// against any internal chunking the sink does), and two empty streams,
// both named empty: one with no chunk at all and one with a single
// empty chunk.
func Run(t *testing.T, name string, n, cpus int, factory Factory) {
	t.Helper()
	misses := Misses(n, cpus)
	stream := make([]int, n)
	for i := range stream {
		stream[i] = 1
	}
	var interleave []int
	for i, step := 0, 1; i < n; step++ {
		c := 0 // every fourth chunk is empty
		switch step % 4 {
		case 1:
			c = 1
		case 2, 3:
			c = min(step*7+3, n-i)
		}
		interleave = append(interleave, c)
		i += c
	}
	shapes := []struct {
		name   string
		chunks []int // chunk lengths in drive order
	}{
		{"stream", stream},
		{"one-batch", []int{n}},
		{"interleave", interleave},
		{"empty", nil},
		{"empty", []int{0}},
	}
	scratch := make([]trace.Miss, 0, n)
	for _, sh := range shapes {
		t.Run(name+"/"+sh.name, func(t *testing.T) {
			sink, observe := factory()
			sent := 0
			for _, c := range sh.chunks {
				scratch = append(scratch[:0], misses[sent:sent+c]...)
				sink.AppendBatch(scratch)
				for i := range scratch {
					scratch[i] = trace.Miss{Addr: ^uint64(0)}
				}
				sent += c
			}
			h := Header(sent, cpus)
			sink.Finish(h)
			check(t, observe, misses[:sent], h)
		})
	}
}

func check(t *testing.T, observe func() (Observed, bool), misses []trace.Miss, h trace.Header) {
	t.Helper()
	if observe == nil {
		return // blind sink: surviving the drive is the contract
	}
	obs, ok := observe()
	if !ok {
		return
	}
	if len(obs.Finishes) != 1 {
		t.Fatalf("sink observed %d Finish calls, want exactly 1", len(obs.Finishes))
	}
	if obs.Finishes[0] != h {
		t.Errorf("sink folded header %+v, want %+v", obs.Finishes[0], h)
	}
	if len(obs.Misses) != len(misses) {
		t.Fatalf("sink observed %d records, want %d", len(obs.Misses), len(misses))
	}
	for i := range misses {
		if obs.Misses[i] != misses[i] {
			t.Fatalf("record %d = %+v, want %+v (ordering violated)", i, obs.Misses[i], misses[i])
		}
	}
}
