package server_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

// resultOfReference is ResultOf as a sequence of separate passes: the
// counts through core.Analysis's own accessors, and each digest through a
// hash/fnv hash fed one record at a time. ResultOf's one fused pass must
// agree with it field for field.
func resultOfReference(cr *tempstream.ContextResult) *server.SessionResult {
	a := cr.Analysis
	r := &server.SessionResult{
		Header:          cr.Header,
		Window:          len(a.Misses),
		States:          a.StateCounts(),
		Strided:         a.StridedCount(),
		Instances:       len(a.Instances),
		GrammarRules:    a.GrammarRules(),
		MedianStreamLen: a.MedianStreamLength(),
		StreamFrac:      a.StreamFraction(),
		MPKI:            cr.Header.MPKI(),
		Prefetch:        cr.Prefetch,
	}

	h := fnv.New64a()
	var buf [16]byte
	for i := range a.Misses {
		m := &a.Misses[i]
		binary.LittleEndian.PutUint64(buf[:8], m.Addr)
		binary.LittleEndian.PutUint16(buf[8:10], uint16(m.Func))
		buf[10] = m.CPU
		buf[11] = byte(m.Class)
		buf[12] = byte(m.Supplier)
		h.Write(buf[:13])
	}
	r.WindowDigest = h.Sum64()

	h.Reset()
	for i := range a.State {
		buf[0] = byte(a.State[i])
		buf[1] = 0
		if a.Strided[i] {
			buf[1] = 1
		}
		h.Write(buf[:2])
	}
	r.StateDigest = h.Sum64()

	h.Reset()
	for _, inst := range a.Instances {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(inst.RuleID))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(inst.Occurrence))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(inst.Pos))
		binary.LittleEndian.PutUint32(buf[12:16], uint32(inst.Len))
		h.Write(buf[:16])
	}
	r.InstanceDigest = h.Sum64()

	h.Reset()
	for _, b := range a.ReuseDist.Buckets() {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(b.Lo))
		binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(b.Weight))
		h.Write(buf[:16])
	}
	r.ReuseDigest = h.Sum64()
	return r
}

// checkResultOf requires ResultOf(cr) to equal the reference image.
func checkResultOf(t *testing.T, what string, cr *tempstream.ContextResult) {
	t.Helper()
	if got, want := server.ResultOf(cr), resultOfReference(cr); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ResultOf\n got %+v\nwant %+v", what, got, want)
	}
}

// TestResultOfMatchesReference holds the one-pass ResultOf to the
// separate-pass reference on empty analyses and on random ones: small
// alphabets for many streams, every CPU, func, class and supplier value,
// and windows cut short of their trace. TestGoldenResults makes the same
// check on every golden context.
func TestResultOfMatchesReference(t *testing.T) {
	empty := &trace.Trace{CPUs: 4}
	checkResultOf(t, "empty", &tempstream.ContextResult{Analysis: core.Analyze(empty, core.Options{})})
	checkResultOf(t, "empty with header", &tempstream.ContextResult{
		Header:   trace.Header{Misses: 0, Instructions: 1000, CPUs: 4},
		Analysis: core.Analyze(empty, core.Options{}),
	})

	rng := rand.New(rand.NewSource(41))
	an := core.NewAnalyzer()
	for trial := 0; trial < 60; trial++ {
		cpus := 1 + rng.Intn(16)
		n := rng.Intn(3000)
		alphabet := uint64(2 + rng.Intn(200))
		tr := &trace.Trace{CPUs: cpus, Instructions: uint64(rng.Int63n(1 << 40))}
		for i := 0; i < n; i++ {
			tr.Misses = append(tr.Misses, trace.Miss{
				Addr:     (rng.Uint64() % alphabet) << 6,
				Func:     trace.FuncID(rng.Intn(1 << 16)),
				CPU:      uint8(rng.Intn(cpus)),
				Class:    trace.MissClass(rng.Intn(int(trace.NumMissClasses))),
				Supplier: trace.Supplier(rng.Intn(int(trace.NumSuppliers))),
			})
		}
		opts := core.Options{}
		if trial%4 == 3 && n > 0 {
			opts.MaxMisses = 1 + rng.Intn(n)
		}
		cr := &tempstream.ContextResult{
			Header:   trace.Header{Misses: n, Instructions: tr.Instructions, CPUs: cpus},
			Analysis: an.Analyze(tr, opts),
		}
		checkResultOf(t, "random", cr)
	}
}
