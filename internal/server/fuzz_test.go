package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/proto"
)

// FuzzRequestLine drives the negotiation path a connection's first bytes
// take: proto.ReadLine at proto.MaxLine, the Request JSON decode, and
// checkRequest. Nothing may panic; a line over the bound must be
// rejected; and an accepted request must carry a window in
// [1, maxWindow] and, when present, a bounded prefetcher.
func FuzzRequestLine(f *testing.F) {
	const maxWindow = 50000
	for _, req := range []Request{
		{},
		{Label: "apache/single-chip"},
		{Probe: true},
		{Analysis: core.Options{MaxMisses: -1}},
		{Analysis: core.Options{MaxMisses: 8000}},
		{Prefetch: &prefetch.Config{Depth: 8}},
		{Prefetch: &prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}},
		{Prefetch: &prefetch.Config{HistoryLen: 1 << 20, BufferBlocks: 1 << 18, PerCPU: true}},
		{Resume: &ResumeRequest{}},
		{Resume: &ResumeRequest{Token: "0123456789abcdef"}},
	} {
		line, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte("not json\n"))
	f.Add([]byte(strings.Repeat("x", proto.MaxLine+1) + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		line, err := proto.ReadLine(bufio.NewReader(bytes.NewReader(data)), proto.MaxLine)
		if nl := bytes.IndexByte(data, '\n'); nl > proto.MaxLine && !errors.Is(err, proto.ErrTooLarge) {
			t.Fatalf("a %d-byte line was not rejected as too large (err %v)", nl, err)
		}
		if err != nil {
			return
		}
		if len(line) > proto.MaxLine {
			t.Fatalf("ReadLine returned %d bytes over a %d bound", len(line), proto.MaxLine)
		}
		var req Request
		if json.Unmarshal(line, &req) != nil {
			return
		}
		if fail := checkRequest(&req, maxWindow); fail != nil {
			if fail.code != CodeBadRequest {
				t.Fatalf("rejection code %q, want %q", fail.code, CodeBadRequest)
			}
			return
		}
		if w := req.Analysis.MaxMisses; w < 1 || w > maxWindow {
			t.Fatalf("accepted window %d outside [1, %d]", w, maxWindow)
		}
		if pf := req.Prefetch; pf != nil && (pf.HistoryLen < 1 || pf.HistoryLen > MaxPrefetchHistory ||
			pf.BufferBlocks < 1 || pf.BufferBlocks > MaxPrefetchBuffer) {
			t.Fatalf("accepted an unbounded prefetcher %+v", *pf)
		}
	})
}
