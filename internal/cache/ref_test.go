package cache

import "fmt"

// refCache is the LLC as it was before fingerprints and packed recency
// orders: per-way LRU ages stamped from a per-set access counter, a tag
// and victim scan over every way, and a remembered MRU way per set. It is
// the reference FuzzCacheTwin and the twin tests hold Cache to.
type refCache struct {
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

	// lastLine is line+1 of the cache's most recent access (0 = none).
	lastLine uint64
}

func newRef(sizeBytes, ways, lineSize int) (*refCache, error) {
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
	return &refCache{
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

func (c *refCache) probe(line uint64) bool {
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
	// the first way (ascending) with the smallest age.
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

func (c *refCache) Access(pa uint64) bool {
	line := pa >> c.lineShift
	if c.lastLine == line+1 {
		return true
	}
	hit := c.probe(line)
	c.lastLine = line + 1
	return hit
}

func (c *refCache) AccessRange(pa uint64, n int) (hits, misses int) {
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
		if c.probe(line) {
			hits++
		} else {
			misses++
		}
	}
	c.lastLine = last + 1
	return hits, misses
}

func (c *refCache) InvalidateAll() {
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
