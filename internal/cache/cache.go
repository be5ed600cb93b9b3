// Package cache simulates a set-associative last-level cache keyed by
// simulated physical addresses. It tracks only tags (contents live in
// internal/mem), which is all the reproduction needs: hit/miss decisions
// feed both the cost model and the perf-style counters behind the paper's
// Table III (cache-miss percentages of memmove- vs SwapVA-based GC).
package cache

import (
	"fmt"
	"math/bits"
)

// MaxWays is the largest supported associativity: a set's recency order
// is sixteen 4-bit way indices packed into one uint64.
const MaxWays = 16

// Cache is a set-associative tag store with true-LRU replacement. It is
// shared by all simulated cores (an LLC) and driven, like the rest of its
// machine, by one host goroutine. A probe is the single hottest operation
// in the whole simulator: every charged word and every line of every bulk
// transfer lands here, so a probe does O(1) work whatever the
// associativity.
//
// Ways fill in ascending order and are only ever emptied all at once
// (InvalidateAll), so a set's victim is way fill while the set has an
// empty way, and its least recently used way after that. The hit/miss
// sequence is exactly that of a cache that stamps every way with a per-set
// access counter and evicts the first way with the smallest stamp.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	setBits   uint // log2(sets): a line's tag bits start here
	setMask   uint64
	tags      []uint64 // sets*ways entries; 0 = invalid
	meta      []setMeta

	// lastLine is line+1 of the cache's most recent access (0 = none): a
	// one-entry filter in front of the probe. A repeat of the very last
	// line is necessarily a hit, and touching an already-MRU way does not
	// change the set's LRU order, so the repeat can skip the probe
	// entirely — word-sequential charge loops (8 words per line) take the
	// fast path 7 times out of 8, with results exactly those of the
	// unfiltered cache.
	lastLine uint64
}

// setMeta is one set's replacement state.
type setMeta struct {
	// fp holds one tag fingerprint byte per way, way i in byte i%8 of
	// fp[i/8]: 0x80 | the low 7 tag bits, so an empty way (0) never
	// matches. Fingerprints only pick candidate ways; every candidate is
	// confirmed against its full tag.
	fp [2]uint64
	// order lists the fill valid ways from least to most recently used,
	// one 4-bit way index per nibble with the LRU in the low nibble.
	// Nibbles at and above fill are zero.
	order uint64
	fill  uint8
}

const (
	bytes01   = 0x0101010101010101
	bytes80   = 0x8080808080808080
	nibbles1  = 0x1111111111111111
	nibbles8  = 0x8888888888888888
	fpTagMask = 0x7f
)

// New builds a cache of the given total size in bytes with the given
// associativity (at most MaxWays) and line size. Size must divide evenly
// into sets of a power-of-two count.
func New(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: size, ways and lineSize must be positive")
	}
	if ways > MaxWays {
		return nil, fmt.Errorf("cache: %d ways exceeds the maximum of %d", ways, MaxWays)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", lineSize)
	}
	lines := sizeBytes / lineSize
	sets := lines / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets (size %d, %d-way, %dB lines) is not a positive power of two",
			sets, sizeBytes, ways, lineSize)
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*ways),
		meta:      make([]setMeta, sets),
	}, nil
}

// MustNew is New for known-good static configurations; it panics on error.
func MustNew(sizeBytes, ways, lineSize int) *Cache {
	c, err := New(sizeBytes, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

// SetExclusive has no effect: every cache is driven by one goroutine.
//
// Deprecated: caches are single-owner; there is nothing to declare.
func (c *Cache) SetExclusive(bool) {}

// probe touches one line (identified by its line number) within its set
// and reports whether it hit. On a miss the line is installed, evicting
// the set's LRU entry.
func (c *Cache) probe(line uint64) bool {
	tag := line + 1 // +1 so tag 0 stays "invalid"
	set := int(line & c.setMask)
	s := &c.meta[set]
	base := set * c.ways
	top := 4 * uint(s.fill-1) // the MRU nibble's shift; unused when fill == 0
	// A hit on the MRU way leaves the recency order as it is.
	if s.fill > 0 && c.tags[base+int(s.order>>top&0xf)] == tag {
		return true
	}
	fp := 0x80 | line>>c.setBits&fpTagMask
	pat := fp * bytes01
	for k := range s.fp {
		x := s.fp[k] ^ pat
		// Zero bytes of x are the ways whose fingerprint matches. The
		// test flags every zero byte; it may also flag a valid way's byte
		// just above one, which the full-tag comparison rejects. Empty
		// ways XOR to fp, whose high bit is set, so they are never
		// flagged.
		for m := (x - bytes01) &^ x & bytes80; m != 0; m &= m - 1 {
			way := 8*k + bits.TrailingZeros64(m)>>3
			if c.tags[base+way] == tag {
				s.touch(way, top)
				return true
			}
		}
	}
	var way int
	if w := int(s.fill); w < c.ways {
		way = w
		s.order |= uint64(w) << (4 * uint(w))
		s.fill++
	} else {
		way = int(s.order & 0xf)
		s.order = s.order>>4 | uint64(way)<<(4*uint(w-1))
	}
	c.tags[base+way] = tag
	shift := 8 * uint(way&7)
	s.fp[way>>3] = s.fp[way>>3]&^(0xff<<shift) | fp<<shift
	return false
}

// touch moves way, which is not the MRU, to the MRU position top (the
// shift of the set's highest valid nibble).
func (s *setMeta) touch(way int, top uint) {
	// The lowest zero nibble of x is way's position: way occurs once
	// among the valid nibbles, and the zero nibbles above them can only
	// match way 0, which is always valid and so sits lower.
	x := s.order ^ uint64(way)*nibbles1
	p := uint(bits.TrailingZeros64((x-nibbles1)&^x&nibbles8)) &^ 3
	low := s.order & (1<<p - 1)
	s.order = low | s.order>>(p+4)<<p | uint64(way)<<top
}

// Access touches the line containing physical address pa and returns
// whether it hit. On a miss the line is installed, evicting the set's LRU
// entry. Writes and reads are treated alike (allocate-on-write).
func (c *Cache) Access(pa uint64) bool {
	line := pa >> c.lineShift
	if c.lastLine == line+1 {
		return true
	}
	hit := c.probe(line)
	c.lastLine = line + 1
	return hit
}

// AccessRange touches every line in [pa, pa+n) and returns the number of
// hits and misses. It is the bulk-transfer entry point used by streaming
// copies.
func (c *Cache) AccessRange(pa uint64, n int) (hits, misses int) {
	if n <= 0 {
		return 0, 0
	}
	first := pa >> c.lineShift
	last := (pa + uint64(n) - 1) >> c.lineShift
	// The filter applies to the opening line only: further into the range
	// the loop's own probes intervene, and a wrapping range (longer than
	// the cache's set span) could even have evicted a filtered line.
	line := first
	if c.lastLine == first+1 {
		hits++
		line++
	}
	for ; line <= last; line++ {
		if c.probe(line) {
			hits++
		} else {
			misses++
		}
	}
	c.lastLine = last + 1
	return hits, misses
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	clear(c.tags)
	clear(c.meta)
	c.lastLine = 0
}

// Sets and Ways expose the geometry for tests.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
