package solaris

import (
	"repro/internal/engine"
	"repro/internal/memmap"
)

// NetStack models IP packet assembly and the network receive path. Outgoing
// socket writes are chopped into MSS-sized packets, each touching the IP
// header template, the message header, the payload (checksum), and shared
// protocol counters. Incoming data lands in a small ring of reused DMA
// buffers - the reuse is why the paper finds web-server bulk copies
// repetitive while DSS copies are not.
type NetStack struct {
	k          *Kernel
	ipTemplate uint64
	ipStats    uint64
	routes     uint64 // route cache (16 blocks, shared, read per packet)
	rxDesc     []uint64
	rxData     []memmap.Region
	rxNext     int

	// Stats.
	PacketsOut, PacketsIn uint64
}

// mssBytes is the modeled maximum segment size.
const mssBytes = 1024

func newNetStack(k *Kernel) *NetStack {
	n := &NetStack{
		k:          k,
		ipTemplate: k.AllocBlocks(1),
		ipStats:    k.AllocBlocks(1),
		routes:     k.AllocBlocks(16),
	}
	for i := 0; i < k.P.RxRingBufs; i++ {
		n.rxDesc = append(n.rxDesc, k.AllocBlocks(1))
		n.rxData = append(n.rxData, k.AS.Alloc("kernel.rxbuf", k.P.RxBufBytes))
	}
	return n
}

// Send drains a socket stream to the wire: write the payload into the
// stream (copyin + putnext), then assemble IP packets from each queued
// message.
func (n *NetStack) Send(ctx *engine.Ctx, p *Process, s *Stream, src, size uint64) {
	k := n.k
	k.StreamWrite(ctx, p, s, src, size)
	for len(s.msgs) > 0 {
		m := s.msgs[0]
		s.msgs = s.msgs[1:]
		for off := uint64(0); off < m.size; off += mssBytes {
			chunk := m.size - off
			if chunk > mssBytes {
				chunk = mssBytes
			}
			ctx.Call(k.fn.tcpOutput)
			ctx.Read(s.proto) // tcp_t: sequence numbers, window state
			ctx.Write(s.proto)
			ctx.Call(k.fn.ipWput)
			ctx.Read(n.ipTemplate)
			ctx.Read(n.routes + (s.head>>6%16)*memmap.BlockSize) // route cache
			ctx.Write(m.addr)
			ctx.ReadN(m.Data()+off, chunk) // checksum over payload
			ctx.AddInstr(chunk / 8)
			ctx.Write(n.ipStats)
			ctx.Ret()
			ctx.Ret()
			n.PacketsOut++
		}
		k.freeb(ctx, m)
	}
}

// Receive models size bytes of network data arriving for stream s: the NIC
// DMAs into the next ring buffer, ip_input inspects it, and the payload is
// copied into a fresh mblk queued on s for a later StreamRead.
func (n *NetStack) Receive(ctx *engine.Ctx, s *Stream, size uint64) {
	k := n.k
	buf := n.rxNext % len(n.rxDesc)
	n.rxNext++
	if size > n.rxData[buf].Size {
		size = n.rxData[buf].Size
	}
	ctx.DMAWrite(n.rxData[buf].Base, size)
	ctx.Call(k.fn.ipInput)
	ctx.Read(n.rxDesc[buf])
	ctx.Write(n.rxDesc[buf])
	ctx.Read(n.routes + (s.head>>6%16)*memmap.BlockSize)
	ctx.Read(s.proto)
	ctx.Write(s.proto)
	ctx.Write(n.ipStats)
	m := k.allocb(ctx, size)
	k.Bcopy(ctx, n.rxData[buf].Base, m.Data(), m.size)
	k.putnext(ctx, s, m)
	ctx.Ret()
	n.PacketsIn++
}
