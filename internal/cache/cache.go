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
// associativity, and its common cases read one host cache line.
//
// Ways fill in ascending order and are only ever emptied all at once
// (InvalidateAll), so a set's victim is its lowest empty way while it has
// one, and its least recently used way after that. The hit/miss sequence
// is exactly that of a cache that stamps every way with a per-set access
// counter and evicts the first way with the smallest stamp, for every
// physical address below 2^47 (a uint32 frame number times 4 KiB stays
// below 2^44).
type Cache struct {
	rows      []row // one per set
	setMask   uint64
	lineShift uint
	setBits   uint // log2(sets): a line's tag is line >> setBits
	top       uint // the MRU nibble's shift in a row's order: 4*(ways-1)
	blank     row  // an empty set
}

// row is one set: 128 bytes, two host cache lines of a page-aligned slice.
// The first line holds all a probe reads before it knows the outcome, so
// an MRU hit, and a miss whose fingerprints match no way, read one host
// line; a miss then writes its way's tag half in the second.
//
// A way's tag (line >> setBits, below 2^47) is split in two: its low
// fpBits are the way's fingerprint and the rest is hi. A probe compares its
// fingerprint with all the set's ways at once and confirms a matching way
// against hi, so a way matches exactly when its whole tag does.
type row struct {
	// mru is the line held by the most recently used way, or noLine while
	// the set is empty. Touching the MRU way again changes no replacement
	// state, so a probe that matches mru is a finished hit. A repeat of
	// the cache's previous line always is one.
	mru uint64
	// order lists every way from least to most recently used, one 4-bit
	// way index per nibble with the LRU in the low nibble. Empty ways
	// count as less recently used than any filled one and queue in
	// ascending order, so the low nibble is always the victim: the lowest
	// empty way while the set has one, its LRU way after that. Nibbles
	// above the MRU's are zero.
	order uint64
	// fp holds way i's fingerprint in 16-bit lane i%4 of fp[i/4]; an
	// empty way's is 0.
	fp [MaxWays / 4]uint64
	_  [2]uint64 // hi starts the second host line
	// hi[i] is the high part of way i's tag, or emptyHi, which no tag
	// reaches, while way i is empty.
	hi [MaxWays]uint32
}

const (
	fpBits = 16 // a way's fingerprint is the low fpBits of its tag
	fpMask = 1<<fpBits - 1

	lanes1 = 0x0001000100010001 // 1 in every 16-bit lane
	lanes7 = 0x7fff7fff7fff7fff
	lanes8 = 0x8000800080008000 // every lane's high bit

	nibbles1 = 0x1111111111111111
	nibbles8 = 0x8888888888888888

	// noLine is an empty set's mru, and emptyHi an empty way's hi. No
	// line, and no tag's high part, reaches them.
	noLine  = ^uint64(0)
	emptyHi = ^uint32(0)
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
	c := &Cache{
		rows:      make([]row, sets),
		setMask:   uint64(sets - 1),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		top:       4 * uint(ways-1),
		blank:     row{mru: noLine},
	}
	for w := range ways {
		c.blank.order |= uint64(w) << (4 * uint(w))
	}
	for w := range c.blank.hi {
		c.blank.hi[w] = emptyHi
	}
	c.InvalidateAll()
	return c, nil
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

// Access touches the line containing physical address pa and returns
// whether it hit. On a miss the line is installed, evicting the set's LRU
// entry. Writes and reads are treated alike (allocate-on-write). Access
// inlines into its callers, so a hit on the set's MRU line costs no call.
func (c *Cache) Access(pa uint64) bool {
	line := pa >> c.lineShift
	return c.rows[line&c.setMask].mru == line || c.probe(line)
}

// AccessRange touches every line in [pa, pa+n) and returns the number of
// hits and misses. It is the bulk-transfer entry point used by streaming
// copies, whose lines mostly either are their set's MRU or match no way's
// fingerprint, and so are settled by the first host line of their row.
// lookup, touch and fill inline: the loop makes no call.
func (c *Cache) AccessRange(pa uint64, n int) (hits, misses int) {
	if n <= 0 {
		return 0, 0
	}
	first := pa >> c.lineShift
	last := (pa + uint64(n) - 1) >> c.lineShift
	rows, mask, setBits, top := c.rows, c.setMask, c.setBits&63, c.top
	for line := first; line <= last; line++ {
		r := &rows[line&mask]
		if r.mru == line {
			continue
		}
		tag := line >> setBits
		pat := tag & fpMask * lanes1
		x0, x1, x2, x3 := r.fp[0]^pat, r.fp[1]^pat, r.fp[2]^pat, r.fp[3]^pat
		// Some lane of x is zero, a way whose fingerprint matches, exactly
		// when this is nonzero.
		if ((x0-lanes1)&^x0|(x1-lanes1)&^x1|(x2-lanes1)&^x2|(x3-lanes1)&^x3)&lanes8 != 0 {
			if way := r.lookup(tag); way >= 0 {
				r.touch(way, top)
				r.mru = line
				continue
			}
		}
		r.fill(line, tag, top)
		misses++
	}
	return int(last-first+1) - misses, misses
}

// probe touches line, which is not its set's MRU, and reports whether it
// hit. On a miss the line is installed in the set's victim way.
func (c *Cache) probe(line uint64) bool {
	r := &c.rows[line&c.setMask]
	tag := line >> c.setBits
	if way := r.lookup(tag); way >= 0 {
		r.touch(way, c.top)
		r.mru = line
		return true
	}
	r.fill(line, tag, c.top)
	return false
}

// lookup returns the way holding tag, or -1.
func (r *row) lookup(tag uint64) int {
	pat := tag & fpMask * lanes1
	hi := uint32(tag >> fpBits)
	for k, f := range r.fp {
		x := f ^ pat
		// The high bit of each zero lane of x: a way whose fingerprint
		// matches, to be confirmed against hi.
		for m := ^((x&lanes7 + lanes7) | x) & lanes8; m != 0; m &= m - 1 {
			if way := 4*k + bits.TrailingZeros64(m)>>4; r.hi[way] == hi {
				return way
			}
		}
	}
	return -1
}

// fill installs line, whose tag is tag, in the set's victim way and makes
// it the MRU.
func (r *row) fill(line, tag uint64, top uint) {
	way := r.order & 0xf
	r.order = r.order>>4 | way<<(top&63)
	r.hi[way] = uint32(tag >> fpBits)
	k, shift := way>>2&3, fpBits*(way&3)
	r.fp[k] = r.fp[k]&^(fpMask<<shift) | tag&fpMask<<shift
	r.mru = line
}

// touch moves way, which is not the MRU, to the MRU position top.
func (r *row) touch(way int, top uint) {
	// The lowest zero nibble of x is way's position: way occurs once
	// among the nibbles up to top, and the zero nibbles above them can
	// only match way 0, which sits lower.
	x := r.order ^ uint64(way)*nibbles1
	p := uint(bits.TrailingZeros64((x-nibbles1)&^x&nibbles8)) &^ 3
	low := r.order & (1<<p - 1)
	r.order = low | r.order>>(p+4)<<p | uint64(way)<<top
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	for i := range c.rows {
		c.rows[i] = c.blank
	}
}

// Sets and Ways expose the geometry for tests.
func (c *Cache) Sets() int { return len(c.rows) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return int(c.top/4) + 1 }
