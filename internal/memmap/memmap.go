// Package memmap models the simulated physical address space used by the
// workload behavioral models and the cache simulator.
//
// Addresses are plain uint64 byte addresses. The space is carved into named
// regions by a bump allocator so that the total footprint stays compact:
// every allocated block index (addr >> BlockBits) lies in [0, Blocks()).
// Compactness lets the simulator keep per-block metadata (directory or
// presence entries, classifier words) in one flat array of per-block
// records instead of maps, which is what makes whole-trace classification
// affordable.
package memmap

const (
	// BlockBits is log2 of the cache block size (64-byte blocks, as in the
	// paper's system models).
	BlockBits = 6
	// BlockSize is the cache block size in bytes.
	BlockSize = 1 << BlockBits
	// PageBits is log2 of the OS page size (4 KB, Solaris/SPARC base page).
	PageBits = 12
	// PageSize is the OS page size in bytes.
	PageSize = 1 << PageBits
)

// BlockOf returns the block-aligned address containing addr.
func BlockOf(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// BlockIndex returns the block index (address divided by block size).
func BlockIndex(addr uint64) uint64 { return addr >> BlockBits }

// PageOf returns the page-aligned address containing addr.
func PageOf(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// RegionID identifies an allocated region within an AddressSpace.
type RegionID uint16

// Region is a contiguous, named span of simulated memory.
type Region struct {
	ID   RegionID
	Name string
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// AddressSpace is a bump allocator over a compact simulated address space.
// The zero value is not usable; call New.
type AddressSpace struct {
	regions []Region
	next    uint64
}

// New returns an empty address space. Allocation starts at a non-zero base
// so that address 0 is never valid (it is used as a sentinel elsewhere).
func New() *AddressSpace {
	return &AddressSpace{next: PageSize}
}

// Alloc carves a new block-aligned region of at least size bytes and
// returns it. Regions never overlap and are stable for the life of the
// space.
//
// Regions are packed at cache-block granularity, not page granularity:
// page-aligning every small region would make region-start blocks
// congruent modulo the page size, creating a cache set-conflict pathology
// no real address space exhibits.
func (as *AddressSpace) Alloc(name string, size uint64) Region {
	if size == 0 {
		size = BlockSize
	}
	size = (size + BlockSize - 1) &^ uint64(BlockSize-1)
	r := Region{
		ID:   RegionID(len(as.regions)),
		Name: name,
		Base: as.next,
		Size: size,
	}
	as.next += size
	as.regions = append(as.regions, r)
	return r
}

// Footprint returns the total number of bytes allocated so far (including
// the reserved first page).
func (as *AddressSpace) Footprint() uint64 { return as.next }

// Blocks returns the number of cache blocks spanned by the allocated space.
// Valid block indices are [0, Blocks()).
func (as *AddressSpace) Blocks() uint64 { return (as.next + BlockSize - 1) >> BlockBits }

// Pages returns the number of pages spanned by the allocated space.
func (as *AddressSpace) Pages() uint64 { return (as.next + PageSize - 1) >> PageBits }

// RegionOf returns the region containing addr, or false if the address was
// never allocated. It is O(log n) and intended for diagnostics, not hot
// paths.
func (as *AddressSpace) RegionOf(addr uint64) (Region, bool) {
	lo, hi := 0, len(as.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := as.regions[mid]
		switch {
		case addr < r.Base:
			hi = mid
		case addr >= r.End():
			lo = mid + 1
		default:
			return r, true
		}
	}
	return Region{}, false
}
