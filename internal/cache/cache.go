// Package cache simulates a set-associative last-level cache keyed by
// simulated physical addresses. It tracks only tags (contents live in
// internal/mem), which is all the reproduction needs: hit/miss decisions
// feed both the cost model and the perf-style counters behind the paper's
// Table III (cache-miss percentages of memmove- vs SwapVA-based GC).
package cache

import "fmt"

// Cache is a set-associative tag store with LRU replacement. It is shared
// by all simulated cores (an LLC) and driven, like the rest of its
// machine, by one host goroutine. A probe is the single hottest operation
// in the whole simulator: every charged word and every line of every bulk
// transfer lands here.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64 // sets*ways entries; 0 = invalid
	age       []uint64 // per-entry LRU timestamps
	ticks     []uint64 // per-set LRU clocks

	// mru caches each set's most-recently-used way for a first-probe
	// short-circuit; purely an accelerator, hit/miss decisions and LRU
	// ages are unchanged.
	mru []uint8

	// lastLine is line+1 of the cache's most recent access (0 = none): a
	// one-entry filter in front of the probe. A repeat of the very last
	// line is necessarily a hit, and bumping an already-MRU way does not
	// change the set's LRU order, so the repeat can skip the probe
	// entirely — word-sequential charge loops (8 words per line) take the
	// fast path 7 times out of 8, with results exactly those of the
	// unfiltered cache.
	lastLine uint64
}

// New builds a cache of the given total size in bytes with the given
// associativity and line size. Size must divide evenly into sets of a
// power-of-two count.
func New(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: size, ways and lineSize must be positive")
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
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*ways),
		age:       make([]uint64, sets*ways),
		ticks:     make([]uint64, sets),
		mru:       make([]uint8, sets),
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
	base := set * c.ways
	c.ticks[set]++
	tick := c.ticks[set]
	if m := base + int(c.mru[set]); c.tags[m] == tag {
		c.age[m] = tick
		return true
	}
	// One combined pass: scan for the tag while tracking the LRU victim,
	// so a miss — the dominant case on streaming transfers, where this
	// probe is the simulator's hottest loop — costs one ways-long scan,
	// not a tag scan plus a victim scan. Victim choice is identical to a
	// dedicated second pass: first way (ascending) with the smallest age.
	tags := c.tags[base : base+c.ways]
	ages := c.age[base : base+c.ways]
	victim, oldest := 0, ^uint64(0)
	for i, t := range tags {
		if t == tag {
			ages[i] = tick
			c.mru[set] = uint8(i)
			return true
		}
		if ages[i] < oldest {
			victim, oldest = i, ages[i]
		}
	}
	tags[victim] = tag
	ages[victim] = tick
	c.mru[set] = uint8(victim)
	return false
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

// coldSet reports whether set has provably never been probed (and never
// re-probed since the last InvalidateAll): its LRU tick is still zero.
// Every probe unconditionally increments the set's tick first, so a zero
// tick implies every way is invalid and any access must miss.
func (c *Cache) coldSet(set int) bool {
	return c.ticks[set] == 0
}

// installCold installs line into its provably-empty set in closed form,
// producing exactly the state a full probe would: the probe would bump
// the tick to 1, find no tag, pick way 0 as victim (all ages are zero and
// the scan takes the first smallest), and install with age 1 and MRU 0.
// Callers must have checked coldSet.
func (c *Cache) installCold(set int, line uint64) {
	c.ticks[set] = 1
	c.tags[set*c.ways] = line + 1
	c.age[set*c.ways] = 1
	c.mru[set] = 0
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

// AccessRangeCold is AccessRange for transfers hinted all-miss: each
// line whose set is provably empty (zero LRU tick — cold since
// construction or the last InvalidateAll) installs in closed form
// without the tag scan; warm sets take the ordinary probe. Hit/miss
// counts and the final tag/age/MRU/tick state are bit-identical to
// AccessRange — the repeat filter applies to the opening line only and
// the filter word ends at last+1, exactly as there.
func (c *Cache) AccessRangeCold(pa uint64, n int) (hits, misses int) {
	if n <= 0 {
		return 0, 0
	}
	first := pa >> c.lineShift
	last := (pa + uint64(n) - 1) >> c.lineShift
	line := first
	if c.lastLine == first+1 {
		hits++
		line++
	}
	for ; line <= last; line++ {
		set := int(line & c.setMask)
		if c.coldSet(set) {
			c.installCold(set, line)
			misses++
			continue
		}
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
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for i := base; i < base+c.ways; i++ {
			c.tags[i] = 0
			c.age[i] = 0
		}
		c.ticks[set] = 0
		c.mru[set] = 0
	}
	c.lastLine = 0
}

// Sets and Ways expose the geometry for tests.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
