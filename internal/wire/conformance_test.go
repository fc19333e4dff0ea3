package wire_test

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
	"repro/internal/wire"
)

// TestEncoderSinkConformance applies the shared Sink harness to the wire
// encoder: what it observes is what a decode of its output yields, so the
// conformance doubles as an order-preservation proof for the codec.
func TestEncoderSinkConformance(t *testing.T) {
	const cpus = 4
	factory := func() (trace.Sink, func() (sinktest.Observed, bool)) {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf, cpus)
		return enc, func() (sinktest.Observed, bool) {
			if err := enc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			tr, trailer, err := readAll(buf.Bytes())
			if err != nil {
				t.Fatalf("decoding encoder output: %v", err)
			}
			return sinktest.Observed{
				Misses:   tr.Misses,
				Finishes: []trace.Header{trailer.Header},
			}, true
		}
	}
	sinktest.Run(t, "wire.Encoder", 9000, cpus, factory)
}
