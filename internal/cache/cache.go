// Package cache implements the set-associative cache arrays used by both
// machine models: split 2-way L1 I/D caches and 16-way unified L2s, with
// true-LRU replacement and per-line coherence state (MOSI states; the
// multi-chip model uses the MSI subset).
//
// The cache operates on block numbers (byte address >> memmap.BlockBits),
// is purely functional (no timing), and never stores data — only tags and
// states, which is all a trace-collection study needs.
//
// Storage layout (the simulator's innermost loop): each line is one packed
// uint64 — the block number in the low 62 bits and the coherence state in
// the top two — so a way scan walks a single contiguous array instead of
// parallel tag/state/timestamp slices. Replacement is true LRU with
// victim choice identical to a global-timestamp implementation, but the
// bookkeeping is specialized by associativity:
//
//   - 2-way sets (the L1s, the hottest arrays in the simulator): LRU is a
//     single MRU byte per set — the victim is the other way — and the
//     read-hit path is two tag compares plus a one-byte store.
//   - 16-way sets (the L2s): a 64-byte per-set header holds 16-bit tag
//     signatures, recency rank bytes (byte w = rank of way w, 0 = MRU)
//     updated with branch-free SWAR arithmetic, and the valid mask. The
//     simulated address spaces are compact, so the 16-bit signature is
//     the EXACT tag above the set index (Fill enforces this) and a
//     probe+touch reads and writes one host cache line without ever
//     walking the 16 tag words.
//   - other widths (tests): one SWAR rank word per set plus a valid mask.
//
// Free ways come from the valid mask (or the tag words themselves for
// 2-way sets), so a miss-then-fill sequence (Probe/ReadHit + Fill) scans
// each set at most once.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// State is a coherence state for one cache line.
type State uint8

const (
	// Invalid: the line holds no block.
	Invalid State = iota
	// Shared: read-only copy; memory (or a remote owner) is up to date.
	Shared
	// Owned: dirty copy responsible for supplying data, other copies may
	// exist (MOSI; used by the single-chip protocol).
	Owned
	// Modified: sole dirty copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Dirty reports whether the state obliges a writeback on eviction.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Line packing: block number in the low bits, state in the top two. All
// valid states are non-zero, so a line word is 0 iff the line is invalid.
const (
	stateShift = 62
	blockMask  = uint64(1)<<stateShift - 1
)

// MaxWays bounds associativity: the per-set metadata (signatures, rank
// bytes, valid mask) is laid out for at most 16 ways.
const MaxWays = 16

// SWAR constants: byte lanes and 16-bit lanes.
const (
	l8  = 0x0101010101010101
	h8  = 0x8080808080808080
	l16 = 0x0001000100010001
	h16 = 0x8000800080008000
)

// Wide-set header layout: one 64-byte (cache-line sized) record per set
// holding everything a probe+touch needs — 16-bit tag signatures, rank
// bytes, and the valid mask — so the hot wide-set operations read and
// write a single host cache line and only consult the tag array when a
// line's full block number or state is actually needed.
const (
	metaStride = 64 // bytes 0..31 sig16s, 32..47 rank bytes, 48..49 valid
	metaRanks  = 32
	metaValid  = 48
)

// Config sizes a cache.
type Config struct {
	Bytes     int // total capacity in bytes
	Ways      int // associativity
	BlockBits int // log2 of block size
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Bytes / ((1 << c.BlockBits) * c.Ways) }

// Cache is one set-associative cache array. The zero value is unusable;
// call New.
type Cache struct {
	cfg       Config
	sets      int
	setMask   uint64
	setBits   uint // log2(sets)
	ways      int
	waysShift uint     // log2(ways): line i belongs to set i>>waysShift
	fullMask  uint16   // all ways valid
	lines     []uint64 // packed state|block words, 0 == invalid
	mru       []uint8  // 2-way sets: most recently used way (LRU = 1-mru)
	ranks     []uint64 // 3..8-way sets: one rank word per set
	meta      []uint8  // wide sets: 32-byte header (signatures + ranks)
	valid     []uint16 // per-set bitmask of valid ways (unused for 2-way)

	// Statistics.
	Evictions uint64
}

// wide reports whether the signature-filtered layout is in use.
func (c *Cache) wide() bool { return c.meta != nil }

// New builds a cache. It panics if the geometry is inconsistent (caches are
// constructed from trusted static configuration): the set count and way
// count must be powers of two, with at most MaxWays ways.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two (cfg %+v)", sets, cfg))
	}
	if cfg.Ways <= 0 || cfg.Ways > MaxWays || cfg.Ways&(cfg.Ways-1) != 0 {
		panic(fmt.Sprintf("cache: way count %d must be a power of two in [1,%d] (cfg %+v)", cfg.Ways, MaxWays, cfg))
	}
	waysShift := uint(0)
	for 1<<waysShift < cfg.Ways {
		waysShift++
	}
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(sets - 1),
		setBits:   setBits,
		ways:      cfg.Ways,
		waysShift: waysShift,
		fullMask:  uint16(1)<<cfg.Ways - 1,
		lines:     make([]uint64, sets*cfg.Ways),
	}
	// LRU layout by associativity. 2-way sets (the L1s, the hottest
	// arrays in the simulator) need only an MRU byte: the victim is the
	// other way. Mid-width sets keep one rank word; wide sets colocate
	// rank bytes with the signature filter. Identity initial ranks with
	// 0xFF padding (never touched, never the LRU); the initial permutation
	// is irrelevant for victim choice because invalid ways are always
	// filled first, and filling touches.
	switch {
	case cfg.Ways <= 2:
		c.mru = make([]uint8, sets)
	case cfg.Ways <= 8:
		c.valid = make([]uint16, sets)
		c.ranks = make([]uint64, sets)
		var ident uint64
		for w := 0; w < 8; w++ {
			b := uint64(0xFF)
			if w < cfg.Ways {
				b = uint64(w)
			}
			ident |= b << uint(w*8)
		}
		for set := range c.ranks {
			c.ranks[set] = ident
		}
	default:
		c.meta = make([]uint8, sets*metaStride)
		for set := 0; set < sets; set++ {
			for w := 0; w < cfg.Ways; w++ {
				c.meta[set*metaStride+metaRanks+w] = uint8(w)
			}
			for w := cfg.Ways; w < 16; w++ {
				c.meta[set*metaStride+metaRanks+w] = 0xFF
			}
		}
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// line index helpers
func (c *Cache) setOf(block uint64) int { return int(block & c.setMask) }

// sigOf returns the 16-bit tag signature used by the wide-set header.
// Fill guarantees (by panicking otherwise) that block >> setBits fits in
// 16 bits, so the signature is the EXACT tag above the set index and a
// signature match needs no verification against the tag array — the
// simulated address spaces are compact (memmap), far below the
// 2^(setBits+16)-block ceiling.
func (c *Cache) sigOf(block uint64) uint64 { return block >> c.setBits }

// sigMatch scans a wide set's header for block's signature, returning the
// matching way or -1. Only the set's one-line header is read.
func (c *Cache) sigMatch(off int, block uint64) int {
	if c.sigOf(block) > 0xFFFF {
		// Beyond the signature range nothing can be resident (Fill
		// refuses such blocks), and the truncated signature must not be
		// allowed to alias a resident line.
		return -1
	}
	sl := c.sigOf(block) * l16
	valid := uint64(binary.LittleEndian.Uint16(c.meta[off+metaValid:]))
	for j := 0; j < c.ways*2; j += 8 {
		z := binary.LittleEndian.Uint64(c.meta[off+j:]) ^ sl
		// Zero-lane detect: may flag false positives (re-checked against
		// the register value below), never false negatives.
		m := (z - l16) & ^z & h16
		for m != 0 {
			lane := bits.TrailingZeros64(m) >> 4
			way := j>>1 + lane
			if z>>(uint(lane)*16)&0xFFFF == 0 && valid>>uint(way)&1 != 0 {
				return way
			}
			m &= m - 1
		}
	}
	return -1
}

// findWayWide locates block's line index in a wide set, or -1.
func (c *Cache) findWayWide(block uint64) int {
	set := int(block & c.setMask)
	way := c.sigMatch(set*metaStride, block)
	if way < 0 {
		return -1
	}
	return set<<c.waysShift + way
}

// findWay locates block's line index, or -1. Narrow sets (the L1s) scan
// their one-or-two-cache-line tag array directly; wide sets (the 16-way
// L2s) go through the signature filter.
func (c *Cache) findWay(block uint64) int {
	if c.wide() {
		return c.findWayWide(block)
	}
	base := c.setOf(block) << c.waysShift
	s := c.lines[base : base+c.ways]
	for i, w := range s {
		if w&blockMask == block && w != 0 {
			return base + i
		}
	}
	return -1
}

// Probe finds block with a single filtered way scan and no LRU effect.
// Callers decide whether the access "uses" the line (Touch); a miss is
// filled without rescanning by Fill.
func (c *Cache) Probe(block uint64) (line int, hit bool) {
	i := c.findWay(block)
	return i, i >= 0
}

// readHit2 is the 2-way ReadHit fast path: two tag compares and a
// one-byte MRU store, small enough to inline into the simulator's access
// functions.
func (c *Cache) readHit2(block uint64) bool {
	set := int(block & c.setMask)
	base := set << 1
	if w := c.lines[base]; w&blockMask == block && w != 0 {
		c.mru[set] = 0
		return true
	}
	if w := c.lines[base+1]; w&blockMask == block && w != 0 {
		c.mru[set] = 1
		return true
	}
	return false
}

// readHitSlow covers the wide (signature-header) and mid-width layouts.
func (c *Cache) readHitSlow(block uint64) bool {
	if c.wide() {
		// Probe and touch run entirely on the set's one-line header; the
		// tag array is not read.
		off := int(block&c.setMask) * metaStride
		way := c.sigMatch(off, block)
		if way < 0 {
			return false
		}
		c.touchWide(off, way)
		return true
	}
	base := c.setOf(block) << c.waysShift
	s := c.lines[base : base+c.ways]
	for i, w := range s {
		if w&blockMask == block && w != 0 {
			if c.mru != nil {
				c.mru[base>>c.waysShift] = uint8(i)
			} else {
				c.touchNarrow(base>>c.waysShift, i)
			}
			return true
		}
	}
	return false
}

// ReadHit is the fused hot path for read/fetch accesses: one filtered
// scan that, on a hit, also marks the line most recently used. It reports
// whether block was resident; on a miss the caller proceeds to the next
// level and eventually Fills.
func (c *Cache) ReadHit(block uint64) bool {
	if c.ways == 2 {
		return c.readHit2(block)
	}
	return c.readHitSlow(block)
}

// WriteHit is the fused store probe: one scan that reports residency and,
// when the line is already Modified (the store fast path), touches it.
// A hit in a weaker state is returned untouched with its line index so
// the caller's upgrade path needs no second scan.
func (c *Cache) WriteHit(block uint64) (line int, hit, modified bool) {
	const mod = uint64(Modified) << stateShift
	if c.ways == 2 {
		set := int(block & c.setMask)
		base := set << 1
		if w := c.lines[base]; w != 0 && w&blockMask == block {
			if w == block|mod {
				c.mru[set] = 0
				return base, true, true
			}
			return base, true, false
		}
		if w := c.lines[base+1]; w != 0 && w&blockMask == block {
			if w == block|mod {
				c.mru[set] = 1
				return base + 1, true, true
			}
			return base + 1, true, false
		}
		return -1, false, false
	}
	i := c.findWay(block)
	if i < 0 {
		return -1, false, false
	}
	if c.lines[i] == block|mod {
		c.Touch(i)
		return i, true, true
	}
	return i, true, false
}

// bump increments every rank byte below r by one: per byte, x < r iff
// (x|0x80)-r has its high bit clear (ranks are < 128, so the per-byte
// subtraction never borrows into a neighbor). Padding bytes are 0xFF and
// never move.
func bump(w, r uint64) uint64 {
	d := (w | h8) - r*l8
	return w + (^d&h8)>>7
}

// touchNarrow moves way to rank 0 of a single-rank-word set.
func (c *Cache) touchNarrow(set, way int) {
	sh := uint(way) * 8
	w := c.ranks[set]
	r := w >> sh & 0xFF
	if r != 0 {
		c.ranks[set] = bump(w, r) &^ (0xFF << sh)
	}
}

// touchWide moves way to rank 0 of a wide set's header (off is the
// header's byte offset).
func (c *Cache) touchWide(off, way int) {
	rb := c.meta[off+metaRanks : off+metaStride : off+metaStride]
	r := uint64(rb[way])
	if r == 0 {
		return
	}
	w0 := binary.LittleEndian.Uint64(rb)
	w1 := binary.LittleEndian.Uint64(rb[8:])
	binary.LittleEndian.PutUint64(rb, bump(w0, r))
	binary.LittleEndian.PutUint64(rb[8:], bump(w1, r))
	rb[way] = 0
}

// touchWay moves way to rank 0 of set's order, aging everything that was
// more recent.
func (c *Cache) touchWay(set, way int) {
	if c.mru != nil {
		c.mru[set] = uint8(way)
		return
	}
	if c.wide() {
		c.touchWide(set*metaStride, way)
		return
	}
	c.touchNarrow(set, way)
}

// lruWay returns the way at rank ways-1 (the eviction victim) via a
// zero-byte search; exactly one byte matches because ranks are a
// permutation.
func (c *Cache) lruWay(set int) int {
	if c.mru != nil {
		// The victim is the other way (or way 0 when ways == 1).
		return int(c.mru[set]) ^ (c.ways - 1)
	}
	target := uint64(c.ways-1) * l8
	if c.wide() {
		off := set * metaStride
		z := binary.LittleEndian.Uint64(c.meta[off+metaRanks:]) ^ target
		if m := (z - l8) & ^z & h8; m != 0 {
			return bits.TrailingZeros64(m) >> 3
		}
		z = binary.LittleEndian.Uint64(c.meta[off+metaRanks+8:]) ^ target
		m := (z - l8) & ^z & h8
		return 8 + bits.TrailingZeros64(m)>>3
	}
	z := c.ranks[set] ^ target
	m := (z - l8) & ^z & h8
	return bits.TrailingZeros64(m) >> 3
}

// Touch marks line i as most recently used.
func (c *Cache) Touch(i int) {
	set := i >> c.waysShift
	c.touchWay(set, i-set<<c.waysShift)
}

// State returns the coherence state of line i.
func (c *Cache) State(i int) State { return State(c.lines[i] >> stateShift) }

// SetState updates the coherence state of line i; setting Invalid frees the
// line.
func (c *Cache) SetState(i int, s State) {
	if s == Invalid {
		c.lines[i] = 0
		set := i >> c.waysShift
		c.clearValid(set, i-set<<c.waysShift)
		return
	}
	c.lines[i] = c.lines[i]&blockMask | uint64(s)<<stateShift
}

// clearValid drops way's valid bit in whichever layout tracks it (the
// 2-way layout derives validity from the tag words and tracks nothing).
func (c *Cache) clearValid(set, way int) {
	if c.meta != nil {
		off := set*metaStride + metaValid
		v := binary.LittleEndian.Uint16(c.meta[off:])
		binary.LittleEndian.PutUint16(c.meta[off:], v&^(1<<uint(way)))
	} else if c.valid != nil {
		c.valid[set] &^= 1 << uint(way)
	}
}

// Block returns the block number held by line i.
func (c *Cache) Block(i int) uint64 { return c.lines[i] & blockMask }

// Victim describes a line displaced by a fill.
type Victim struct {
	Block uint64
	State State
}

// Fill allocates block with the given state after a probe miss, without
// rescanning the set: the lowest invalid way (from the valid mask) is used
// when one exists, otherwise the LRU line is evicted and returned as the
// victim. The caller must have observed block missing from the set; Fill
// does not re-check residency.
func (c *Cache) Fill(block uint64, s State) (victim Victim, evicted bool, line int) {
	if c.mru != nil {
		return c.fill2(block, s)
	}
	set := c.setOf(block)
	var way int
	if c.wide() {
		if c.sigOf(block) > 0xFFFF {
			panic(fmt.Sprintf("cache: block %#x exceeds the wide-set signature range (compact address spaces only)", block))
		}
		off := set * metaStride
		v := binary.LittleEndian.Uint16(c.meta[off+metaValid:])
		if v != c.fullMask {
			way = bits.TrailingZeros16(^v)
			binary.LittleEndian.PutUint16(c.meta[off+metaValid:], v|1<<uint(way))
		} else {
			way = c.lruWay(set)
			line = set<<c.waysShift + way
			w := c.lines[line]
			victim = Victim{Block: w & blockMask, State: State(w >> stateShift)}
			evicted = true
			c.Evictions++
		}
		line = set<<c.waysShift + way
		c.lines[line] = block | uint64(s)<<stateShift
		binary.LittleEndian.PutUint16(c.meta[off+2*way:], uint16(c.sigOf(block)))
		c.touchWide(off, way)
		return victim, evicted, line
	}
	v := c.valid[set]
	if v != c.fullMask {
		way = bits.TrailingZeros16(^v)
		c.valid[set] = v | 1<<uint(way)
	} else {
		way = c.lruWay(set)
		line = set<<c.waysShift + way
		w := c.lines[line]
		victim = Victim{Block: w & blockMask, State: State(w >> stateShift)}
		evicted = true
		c.Evictions++
	}
	line = set<<c.waysShift + way
	c.lines[line] = block | uint64(s)<<stateShift
	c.touchNarrow(set, way)
	return victim, evicted, line
}

// fill2 is Fill for the 2-way layout: free ways are read straight off the
// (already hot) tag words; the victim is the non-MRU way.
func (c *Cache) fill2(block uint64, s State) (victim Victim, evicted bool, line int) {
	set := c.setOf(block)
	base := set << c.waysShift
	var way int
	switch {
	case c.lines[base] == 0:
		way = 0
	case c.ways == 2 && c.lines[base+1] == 0:
		way = 1
	default:
		way = int(c.mru[set]) ^ (c.ways - 1)
		line = base + way
		w := c.lines[line]
		victim = Victim{Block: w & blockMask, State: State(w >> stateShift)}
		evicted = true
		c.Evictions++
	}
	line = base + way
	c.lines[line] = block | uint64(s)<<stateShift
	c.mru[set] = uint8(way)
	return victim, evicted, line
}

// Invalidate removes block if present, returning its prior state.
func (c *Cache) Invalidate(block uint64) (State, bool) {
	i := c.findWay(block)
	if i < 0 {
		return Invalid, false
	}
	s := State(c.lines[i] >> stateShift)
	c.lines[i] = 0
	set := i >> c.waysShift
	c.clearValid(set, i-set<<c.waysShift)
	return s, true
}

// FindSetState updates block's state in place if the block is resident,
// in a single filtered scan (remote downgrades and writeback absorption).
// The new state must be a valid (non-Invalid) state.
func (c *Cache) FindSetState(block uint64, s State) bool {
	i := c.findWay(block)
	if i < 0 {
		return false
	}
	c.lines[i] = block | uint64(s)<<stateShift
	return true
}

// Contains reports whether block is resident (no LRU effect).
func (c *Cache) Contains(block uint64) bool {
	return c.findWay(block) >= 0
}

// Occupancy returns the number of valid lines (diagnostics).
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.lines {
		if w != 0 {
			n++
		}
	}
	return n
}
