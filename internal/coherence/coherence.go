// Package coherence holds the protocol bookkeeping of the two machine
// models in internal/sim, as one word per block: a full-map MSI directory
// entry for the 16-node distributed-shared-memory system, and an on-chip
// presence entry for the 4-core single-chip system's Piranha-like MOSI
// protocol.
//
// The machines keep each block's word in their flat per-block state
// record, next to the block's classifier word, so a miss reads one host
// cache line for both. That works because the simulated address space is
// compact (see internal/memmap). The zero value of either word is a block
// no cache holds.
package coherence

// MaxNodes bounds the directory's sharer bitmap width.
const MaxNodes = 16

// MaxCores bounds the presence entry's holder bitmap width.
const MaxCores = 8

// DirEntry is one block's full-map MSI directory entry: the set of sharer
// nodes (bits 0..15) and the exclusive owner plus one (bits 16..23, 0 for
// none). State is implicit: an owner means Modified at owner; otherwise a
// non-empty sharer set means Shared; otherwise the block is uncached.
type DirEntry uint32

const (
	dirSharers    = 1<<MaxNodes - 1
	dirOwnerShift = MaxNodes
)

// Owner returns the exclusive owner, or -1.
func (d DirEntry) Owner() int { return int(d>>dirOwnerShift) - 1 }

// Sharers returns the sharer bitmap (the owner included).
func (d DirEntry) Sharers() uint16 { return uint16(d) }

// AddSharer records node as holding a shared copy.
func (d *DirEntry) AddSharer(node int) { *d |= 1 << uint(node) }

// RemoveSharer drops node's copy (used on cache evictions); evicting the
// owner clears ownership.
func (d *DirEntry) RemoveSharer(node int) {
	e := *d &^ (1 << uint(node))
	if d.Owner() == node {
		e &= dirSharers
	}
	*d = e
}

// SetOwner makes node the exclusive modified owner, clearing all sharers.
// The caller is responsible for invalidating the previous copies.
func (d *DirEntry) SetOwner(node int) {
	*d = DirEntry(1<<uint(node) | (node+1)<<dirOwnerShift)
}

// Downgrade demotes a Modified block to Shared (owner keeps a copy).
func (d *DirEntry) Downgrade() { *d &= dirSharers }

// Clear removes all copies (DMA writes and non-allocating stores
// invalidate every cache).
func (d *DirEntry) Clear() { *d = 0 }

// PresenceEntry is one block's on-chip presence in the single-chip
// system, mirroring the duplicate-tag "shadow directory" of Piranha's
// intra-chip protocol: which cores' private L1s hold the block (bits 0..7,
// covering both L1I and L1D), which core owns it dirty (Modified or Owned
// in its L1D; owner plus one in bits 8..11, 0 for none), and whether the
// shared L2 holds it (bit 12), so the L2 is probed only for blocks it has.
type PresenceEntry uint16

const (
	presHolders    = 1<<MaxCores - 1
	presOwnerShift = MaxCores
	presOwnerMask  = 0xF << presOwnerShift
	presInL2       = 1 << 12
)

// Holders returns the bitmap of cores with an L1 copy.
func (p PresenceEntry) Holders() uint8 { return uint8(p) }

// HasPeer reports whether any core other than cpu holds the block in an L1.
func (p PresenceEntry) HasPeer(cpu int) bool {
	return uint8(p)&^(1<<uint(cpu)) != 0
}

// Owner returns the core holding the block dirty (M or O), or -1.
func (p PresenceEntry) Owner() int { return int(p&presOwnerMask>>presOwnerShift) - 1 }

// Add records an L1 fill at cpu.
func (p *PresenceEntry) Add(cpu int) { *p |= 1 << uint(cpu) }

// Remove records an L1 eviction or invalidation at cpu; removing the owner
// clears ownership.
func (p *PresenceEntry) Remove(cpu int) {
	e := *p &^ (1 << uint(cpu))
	if p.Owner() == cpu {
		e &^= presOwnerMask
	}
	*p = e
}

// SetOwner marks cpu as the dirty owner, and a holder.
func (p *PresenceEntry) SetOwner(cpu int) {
	*p = *p&^presOwnerMask | 1<<uint(cpu) | PresenceEntry(cpu+1)<<presOwnerShift
}

// InL2 reports whether the shared L2 holds the block.
func (p PresenceEntry) InL2() bool { return p&presInL2 != 0 }

// SetInL2 records whether the shared L2 holds the block.
func (p *PresenceEntry) SetInL2(in bool) {
	if in {
		*p |= presInL2
	} else {
		*p &^= presInL2
	}
}

// Clear removes every on-chip record of the block, the L2's included
// (invalidation by DMA or non-allocating stores).
func (p *PresenceEntry) Clear() { *p = 0 }
