package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// frameRecords is the wire encoder's records per data frame: the batch
// the server's decoder hands its sinks.
const frameRecords = 4096

// isoResult is one isolated replay: the time each layer's entry point
// took over the same recorded streams, on one goroutine.
type isoResult struct {
	encode, decode, relay, session, finish, write, commit time.Duration
	records, analysed, wireBytes, storeBytes              int64
	streams                                               int
}

// isolate replays every stream through each layer of the ingest data
// path alone: wire.Encoder (one Append per record, as the client
// drives it), wire.Decoder.Run, the ReadRawFrame relay loop tsgate runs
// per frame, a tempstream.Session fed frame-sized batches at the given
// window and its Result, and store.Writer with Commit.
func isolate(streams []*stream, window int, dir string) (*isoResult, error) {
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	r := &isoResult{streams: len(streams)}
	var buf bytes.Buffer
	for _, j := range streams {
		r.records += int64(len(j.misses))

		buf.Reset()
		start := time.Now()
		enc := wire.NewEncoder(&buf, j.cpus())
		for _, m := range j.misses {
			enc.Append(m)
		}
		enc.Finish(j.header)
		err := enc.Close()
		r.encode += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: encode: %w", j.label, err)
		}
		raw := buf.Bytes()
		r.wireBytes += int64(len(raw))

		start = time.Now()
		_, err = wire.NewDecoder(bytes.NewReader(raw)).Run(trace.Discard{})
		r.decode += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: decode: %w", j.label, err)
		}

		start = time.Now()
		err = relay(raw)
		r.relay += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: relay: %w", j.label, err)
		}

		start = time.Now()
		ts := tempstream.NewSession(j.cpus(), 0, tempstream.StreamOptions{Analysis: core.Options{MaxMisses: window}})
		for ms := j.misses; len(ms) > 0; {
			n := min(frameRecords, len(ms))
			ts.AppendBatch(ms[:n])
			ms = ms[n:]
		}
		ts.Finish(j.header)
		r.session += time.Since(start)
		start = time.Now()
		cr := ts.Result(nil)
		r.finish += time.Since(start)
		r.analysed += int64(len(cr.Analysis.Misses))

		w, err := st.NewWriter(store.Meta{Label: j.label}, j.cpus())
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for ms := j.misses; len(ms) > 0; {
			n := min(frameRecords, len(ms))
			w.AppendBatch(ms[:n])
			ms = ms[n:]
		}
		w.Finish(j.header)
		r.write += time.Since(start)
		start = time.Now()
		e, err := w.Commit()
		r.commit += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: commit: %w", j.label, err)
		}
		r.storeBytes += e.Bytes
	}
	return r, nil
}

// relay is tsgate's per-frame step in isolation: read one CRC-checked
// frame, copy it out of the reader's scratch (the gateway keeps the copy
// for its replay ring) and forward it, until the trailer.
func relay(raw []byte) error {
	br := bufio.NewReaderSize(bytes.NewReader(raw), 64<<10)
	if err := wire.ReadMagic(br); err != nil {
		return err
	}
	var scratch []byte
	for {
		kind, p, err := wire.ReadRawFrame(br, scratch)
		if err != nil {
			return err
		}
		owned := append([]byte(nil), p...)
		scratch = p
		if _, err := io.Discard.Write(owned); err != nil {
			return err
		}
		if kind == wire.KindTrailer {
			return nil
		}
	}
}

// isolateArchives replays every archive of a store through
// wire.Decoder.Run alone, from memory, and through Store.Stream into
// trace.Discard: the decode cost and the whole read path, one thread.
func isolateArchives(st *store.Store) (decode, stream time.Duration, records int64, err error) {
	for _, e := range st.Entries() {
		raw, rerr := os.ReadFile(filepath.Join(st.Dir(), e.File()))
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		records += e.Records
		start := time.Now()
		_, err = wire.NewDecoder(bytes.NewReader(raw)).Run(trace.Discard{})
		decode += time.Since(start)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: decode: %w", e.ID, err)
		}
		start = time.Now()
		_, err = st.Stream(e, trace.Discard{}, store.Query{})
		stream += time.Since(start)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return decode, stream, records, nil
}

// removeAll deletes a scratch directory; a failure only leaves files in
// the run's own scratch tree, which the run removes at exit.
func removeAll(dir string) { _ = os.RemoveAll(dir) }
