package main

import (
	tempstream "repro"
	"repro/internal/trace"
)

// spanSink records a "tempstream.session" span around every call it
// makes into a Session. With a chunk size it buffers single Appends and
// hands the Session whole chunks — one span per chunk instead of one per
// record — which is the work the Session's own Append buffer would
// trigger at the same points. delivered counts the records passed on.
type spanSink struct {
	tr        *tracer
	parent    int
	op        int
	s         *tempstream.Session
	buf       []trace.Miss
	delivered int64
}

func newSpanSink(tr *tracer, parent, op int, s *tempstream.Session, chunk int) *spanSink {
	w := &spanSink{tr: tr, parent: parent, op: op, s: s}
	if chunk > 0 {
		w.buf = make([]trace.Miss, 0, chunk)
	}
	return w
}

func (w *spanSink) Append(m trace.Miss) {
	if cap(w.buf) == 0 {
		w.AppendBatch([]trace.Miss{m})
		return
	}
	w.buf = append(w.buf, m)
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
}

func (w *spanSink) AppendBatch(ms []trace.Miss) {
	w.flush()
	if len(ms) == 0 {
		return
	}
	id := w.tr.begin("tempstream.session", w.parent, w.op)
	w.s.AppendBatch(ms)
	w.tr.end(id)
	w.delivered += int64(len(ms))
}

func (w *spanSink) flush() {
	if len(w.buf) == 0 {
		return
	}
	id := w.tr.begin("tempstream.session", w.parent, w.op)
	w.s.AppendBatch(w.buf)
	w.tr.end(id)
	w.delivered += int64(len(w.buf))
	w.buf = w.buf[:0]
}

func (w *spanSink) Finish(h trace.Header) {
	w.flush()
	id := w.tr.begin("tempstream.session", w.parent, w.op)
	w.s.Finish(h)
	w.tr.end(id)
}
