package solaris

import (
	"repro/internal/engine"
	"repro/internal/memmap"
)

// The STREAMS subsystem: stream heads, module queue pairs, and message
// blocks (mblks) allocated from a kmem cache. The paper finds that moving
// message pointers through these thread-safe queues - web server <-> perl
// over stdio, socket writes through sockmod/tcp/ip - produces highly
// repetitive access sequences (~80% of STREAMS misses are in temporal
// streams), because the queues, locks, and recycled mblks sit at fixed,
// reused addresses.

// Mblk is a STREAMS message block: one header block followed by the data
// buffer, carved from the shared mblk kmem cache.
type Mblk struct {
	addr uint64 // header block
	size uint64 // payload bytes
}

// Data returns the address of the mblk payload.
func (m *Mblk) Data() uint64 { return m.addr + memmap.BlockSize }

// Stream is one STREAMS endpoint: a stream head and a chain of module
// queues (e.g. stream head -> strrhead -> tcp -> ip for a socket, or a
// two-module pipe for FastCGI stdio).
type Stream struct {
	head  uint64
	proto uint64 // protocol state (tcp_t) for socket streams
	qs    []uint64
	msgs  []*Mblk
}

// NewStream builds a stream with nmods module queues.
func (k *Kernel) NewStream(nmods int) *Stream {
	s := &Stream{head: k.AllocBlocks(1), proto: k.AllocBlocks(1)}
	for i := 0; i < nmods; i++ {
		s.qs = append(s.qs, k.AllocBlocks(1))
	}
	return s
}

// Pending returns the number of queued messages.
func (s *Stream) Pending() int { return len(s.msgs) }

// allocb allocates a message block sized for n payload bytes.
func (k *Kernel) allocb(ctx *engine.Ctx, n uint64) *Mblk {
	ctx.Call(k.fn.allocb)
	addr := k.mblkCache.Alloc(ctx)
	ctx.Write(addr) // initialize b_rptr/b_wptr
	ctx.Ret()
	max := k.mblkCache.ObjBytes() - memmap.BlockSize
	if n > max {
		n = max
	}
	return &Mblk{addr: addr, size: n}
}

// freeb releases a message block.
func (k *Kernel) freeb(ctx *engine.Ctx, m *Mblk) {
	ctx.Call(k.fn.freeb)
	k.mblkCache.Free(ctx, m.addr)
	ctx.Ret()
}

// putnext passes a message through the module chain: each module's queue
// structure is read and updated, and the message's link pointer rewritten.
func (k *Kernel) putnext(ctx *engine.Ctx, s *Stream, m *Mblk) {
	for _, q := range s.qs {
		ctx.Call(k.fn.putnext)
		ctx.Read(q)
		ctx.Write(q)
		ctx.Write(m.addr)
		ctx.Ret()
	}
	ctx.Call(k.fn.putq)
	ctx.Read(s.head)
	ctx.Write(s.head)
	s.msgs = append(s.msgs, m)
	ctx.Ret()
}

// StreamWrite models write(2) to a stream: copy the user data into fresh
// mblks (copyin), segmenting writes larger than one message buffer, and
// pass each down the module chain.
func (k *Kernel) StreamWrite(ctx *engine.Ctx, p *Process, s *Stream, src, n uint64) {
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.write)
	ctx.Call(k.fn.strwrite)
	ctx.Read(s.head)
	maxPayload := k.mblkCache.ObjBytes() - memmap.BlockSize
	for off := uint64(0); off < n; off += maxPayload {
		chunk := n - off
		if chunk > maxPayload {
			chunk = maxPayload
		}
		m := k.allocb(ctx, chunk)
		k.Copyin(ctx, src+off, m.Data(), m.size)
		k.putnext(ctx, s, m)
	}
	ctx.Ret()
	ctx.Ret()
	k.syscallExit(ctx)
}

// StreamRead models read(2) from a stream: dequeue queued messages (getq)
// and copy them to the user buffer with default_copyout until the buffer
// is full or the queue empties. It returns the number of bytes delivered,
// 0 if the stream was empty (the caller then blocks).
func (k *Kernel) StreamRead(ctx *engine.Ctx, p *Process, s *Stream, dst, max uint64) uint64 {
	k.syscallEnter(ctx, p)
	ctx.Call(k.fn.read)
	ctx.Call(k.fn.strread)
	ctx.Read(s.head)
	var total uint64
	for len(s.msgs) > 0 && total < max {
		m := s.msgs[0]
		s.msgs = s.msgs[1:]
		ctx.Call(k.fn.getq)
		ctx.Read(s.qs[len(s.qs)-1])
		ctx.Write(s.qs[len(s.qs)-1])
		ctx.Read(m.addr)
		ctx.Ret()
		n := m.size
		if n > max-total {
			n = max - total
		}
		k.Copyout(ctx, m.Data(), dst+total, n)
		k.freeb(ctx, m)
		total += n
	}
	ctx.Ret()
	ctx.Ret()
	k.syscallExit(ctx)
	return total
}
