package cache

import "testing"

// machineCache is the LLC every simulated machine builds: 2 MiB, 16-way,
// 64-byte lines.
func machineCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(2<<20, 16, 64)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// Sinks keep the benchmarks' results live.
var (
	sinkHit    bool
	sinkMisses int
)

// BenchmarkAccessMRU charges word-sequential loads over one page, as a
// mutator's charged loop does: eight words share a line, so after the
// first pass every access hits its set's MRU way.
func BenchmarkAccessMRU(b *testing.B) {
	c := machineCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHit = c.Access(uint64(i&511) << 3)
	}
}

// BenchmarkAccessRangeMiss streams page-sized ranges over lines the cache
// does not hold: 4096 pages span eight times the cache, so every line
// misses and evicts its set's LRU way, as a copy's or a zeroing's bulk
// stream does. One op is one page, 64 lines.
func BenchmarkAccessRangeMiss(b *testing.B) {
	c := machineCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkMisses = c.AccessRange(uint64(i&4095)<<12, 4096)
	}
}
