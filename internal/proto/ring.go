package proto

// Ring retains a stream's frames for replay, numbered 0, 1, 2, … in push
// order. A frame stays until Trim acknowledges it; trimmed buffers are
// recycled, so a steady push/trim cycle allocates nothing. The resilient
// client trims on the server's cumulative acks; the gateway never trims a
// live session (failover replays from frame 0) and drops everything when
// it stops retaining.
type Ring struct {
	frames [][]byte // frames[i] is frame base+i
	base   int64
	spare  [][]byte
}

// Push retains a copy of p as frame Next().
func (r *Ring) Push(p []byte) {
	var b []byte
	if n := len(r.spare); n > 0 {
		b = r.spare[n-1][:0]
		r.spare = r.spare[:n-1]
	}
	r.frames = append(r.frames, append(b, p...))
}

// Trim releases every frame numbered below seq.
func (r *Ring) Trim(seq int64) {
	n := int(min(seq, r.Next()) - r.base)
	if n <= 0 {
		return
	}
	r.spare = append(r.spare, r.frames[:n]...)
	r.frames = append(r.frames[:0], r.frames[n:]...)
	r.base += int64(n)
}

// Drop releases every retained frame for good, recycled buffers included;
// only the numbering survives, so Base reports that frames were lost.
func (r *Ring) Drop() {
	r.base = r.Next()
	r.frames, r.spare = nil, nil
}

// Frame returns frame seq, which must be retained (Base ≤ seq < Next).
func (r *Ring) Frame(seq int64) []byte { return r.frames[seq-r.base] }

// Len is the number of retained frames.
func (r *Ring) Len() int { return len(r.frames) }

// Base is the number of the oldest retained frame: 0 while the ring still
// holds the stream from its start.
func (r *Ring) Base() int64 { return r.base }

// Next is the number the next pushed frame gets.
func (r *Ring) Next() int64 { return r.base + int64(len(r.frames)) }
