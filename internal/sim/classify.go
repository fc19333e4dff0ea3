package sim

import "repro/internal/trace"

// Writer codes for a block's last writer. Zero means nobody has written
// the block, so the zero classifier word is an untouched block; CPU c
// writes as writerCPU+c.
const (
	writerCopyout = 1
	writerDMA     = 2
	writerCPU     = 3
)

// maxClassifierCPUs bounds the per-block CPU bitmasks.
const maxClassifierCPUs = 16

// classWord is one block's classifier state. It implements the paper's
// miss taxonomy (Section 4.1) from first principles, independent of cache
// contents:
//
//   - Compulsory: the cache block has never previously been accessed.
//   - I/O Coherence: the block was last written by a DMA transfer or a
//     non-allocating kernel-to-user bulk copy, and that write postdates
//     this CPU's last read (or the CPU never read the block).
//   - Coherence: the block was written by another processor since it was
//     last read at this processor, or is being supplied dirty by a remote
//     cache.
//   - Replacement: everything else (capacity/conflict).
//
// The word packs a bitmask of CPUs holding the current write version
// (bits 0..15), a bitmask of CPUs that ever read the block (bits 16..31)
// and the last writer's code (bits 32 and up). The bitmasks carry exactly
// the information the classical per-CPU read-version arrays do: "written
// since my last read" is "I read it before, and a write has cleared my
// holder bit since". Each machine keeps the word in its per-block state
// record beside the block's coherence word.
type classWord uint64

const everReadMask = 0xFFFF << 16

// classifyRead classifies a read miss by cpu. remoteDirty reports that
// another cache is supplying the block dirty. offChipCMP marks off-chip
// misses of the single-chip system, where inter-core communication is
// captured on chip and a miss that leaves the chip is by definition a
// capacity phenomenon (the paper observes no non-I/O off-chip coherence in
// single-chip systems); such misses degrade from Coherence to Replacement.
//
// Call before noteRead for the same access.
func (w classWord) classifyRead(cpu int, remoteDirty, offChipCMP bool) trace.MissClass {
	everRead := uint64(w) >> 16 & 0xFFFF
	if everRead == 0 {
		// No CPU has read or written the block (writes set the writer's
		// everRead bit): first access, compulsory.
		return trace.Compulsory
	}
	bit := uint64(1) << uint(cpu)
	writer := int(w >> 32)
	// "Written since my last read": this CPU read the block at some point,
	// and a later write cleared its holder bit.
	writtenSinceMyRead := everRead&bit != 0 && uint64(w)&bit == 0
	switch {
	case (writer == writerDMA || writer == writerCopyout) && writtenSinceMyRead:
		// The I/O write invalidated a copy this CPU had actually read:
		// a true I/O-coherence miss. First-ever reads of I/O-written data
		// are compulsory (handled above) or plain replacement.
		return trace.IOCoherence
	case writer >= writerCPU && writer != writerCPU+cpu && (remoteDirty || writtenSinceMyRead):
		if offChipCMP {
			return trace.Replacement
		}
		return trace.Coherence
	default:
		return trace.Replacement
	}
}

// noteRead records that cpu observed the current version of the block.
func (w *classWord) noteRead(cpu int) {
	bit := classWord(1) << uint(cpu)
	*w |= bit | bit<<16
}

// noteWrite records a store by cpu: every other CPU's copy becomes stale
// (holder bits collapse to the writer), and the writer trivially holds
// the new version.
func (w *classWord) noteWrite(cpu int) {
	bit := classWord(1) << uint(cpu)
	*w = bit | bit<<16 | *w&everReadMask | classWord(writerCPU+cpu)<<32
}

// noteDMA records a DMA write: all copies become stale. DMA writes do not
// count as CPU accesses for compulsory-miss purposes: the first CPU touch
// of freshly arrived I/O data is a compulsory miss, exactly as in the
// paper's physical-address traces.
func (w *classWord) noteDMA() { *w = *w&everReadMask | writerDMA<<32 }

// noteCopyout records a non-allocating kernel-to-user bulk-copy store
// (the Solaris default_copyout family).
func (w *classWord) noteCopyout() { *w = *w&everReadMask | writerCopyout<<32 }
