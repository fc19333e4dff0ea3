// Package stride implements the stride-predictability test used for the
// paper's Figure 3 ("Strides and temporal streams"): a miss is
// stride-predictable if it continues a constant-stride run that a
// conventional stride prefetcher would have learned.
//
// The detector keeps, per CPU, a small direct-mapped table of recent
// (address, delta) pairs keyed by coarse address region, mirroring how
// hardware stride prefetchers separate interleaved streams. A miss is
// counted as strided when its delta from the previous miss in the same
// region equals the previously observed delta (two-delta confirmation), so
// the first two misses of an arithmetic progression are not counted and
// every subsequent one is.
package stride

// regionBits selects the coarse region used to separate concurrent streams:
// 1 MB regions by default.
const regionBits = 20

// tableSize is the number of per-CPU tracking entries (power of two).
const tableSize = 64

type entry struct {
	region uint64
	last   uint64
	delta  int64
	valid  bool
}

// Detector classifies a per-CPU sequence of miss addresses as strided or
// not. The zero value is not usable; call New.
type Detector struct {
	tables [][]entry
}

// New returns a detector for ncpu CPUs.
func New(ncpu int) *Detector {
	t := make([][]entry, ncpu)
	for i := range t {
		t[i] = make([]entry, tableSize)
	}
	return &Detector{tables: t}
}

// CPUs returns the processor count the detector was built for.
func (d *Detector) CPUs() int { return len(d.tables) }

// Reset clears all tracking state while keeping the per-CPU tables, so one
// detector can be reused across traces without reallocating.
func (d *Detector) Reset() {
	for _, t := range d.tables {
		for i := range t {
			t[i] = entry{}
		}
	}
}

// Observe feeds the next miss address on cpu and reports whether it is
// stride-predictable.
func (d *Detector) Observe(cpu int, addr uint64) bool {
	region := addr >> regionBits
	e := &d.tables[cpu][region&(tableSize-1)]
	if !e.valid || e.region != region {
		*e = entry{region: region, last: addr, valid: true}
		return false
	}
	delta := int64(addr) - int64(e.last)
	strided := delta == e.delta && delta != 0
	e.delta = delta
	e.last = addr
	return strided
}
