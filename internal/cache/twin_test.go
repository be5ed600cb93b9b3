package cache

import (
	"math/rand"
	"testing"
)

// twin drives a Cache and the reference refCache of the same geometry
// through one operation sequence and fails on the first result that
// differs.
type twin struct {
	t   *testing.T
	c   *Cache
	ref *refCache
	op  int
}

func newTwin(t *testing.T, sizeBytes, ways, lineSize int) *twin {
	t.Helper()
	c, err := New(sizeBytes, ways, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRef(sizeBytes, ways, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return &twin{t: t, c: c, ref: ref}
}

func (w *twin) access(pa uint64) {
	w.t.Helper()
	w.op++
	if got, want := w.c.Access(pa), w.ref.Access(pa); got != want {
		w.t.Fatalf("%d-way op %d: Access(%#x) hit=%v, reference %v", w.c.Ways(), w.op, pa, got, want)
	}
}

func (w *twin) accessRange(pa uint64, n int) {
	w.t.Helper()
	w.op++
	h, m := w.c.AccessRange(pa, n)
	rh, rm := w.ref.AccessRange(pa, n)
	if h != rh || m != rm {
		w.t.Fatalf("%d-way op %d: AccessRange(%#x, %d) = %d/%d, reference %d/%d",
			w.c.Ways(), w.op, pa, n, h, m, rh, rm)
	}
}

func (w *twin) invalidateAll() {
	w.op++
	w.c.InvalidateAll()
	w.ref.InvalidateAll()
}

// collidingLine returns a line of set set whose tag is tag + k<<fpBits:
// lines that differ only in k share a set and a tag fingerprint, so every
// probe among them has to be settled by the rest of the tag.
func collidingLine(sets int, set, tag, k uint64) uint64 {
	return set + uint64(sets)*(tag+k<<fpBits)
}

// TestCacheTwinRandom runs seeded random operation mixes through Cache
// and the reference at 1-16 ways, each opened by a few edge-case ranges.
// Lines come from a small pool in which groups of four share both a set
// and a fingerprint, so hits, misses, evictions and fingerprint
// collisions are all common; ranges reach three set spans, so they wrap
// onto lines they installed themselves.
func TestCacheTwinRandom(t *testing.T) {
	const sets, line = 16, 64
	edges := []struct {
		pa uint64
		n  int
	}{
		{0, 4096},         // 64 lines over 16 sets: cold, then self-warmed
		{0, 4096},         // warm re-read
		{15*64 + 32, 160}, // straddles the last set, wraps into set 0
		{9 * 64, 0},       // empty
		{9 * 64, 1},       // single byte
		{9*64 + 63, 2},    // two bytes, two lines
	}
	for _, ways := range []int{1, 2, 3, 4, 7, 8, 9, 15, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			w := newTwin(t, sets*ways*line, ways, line)
			for _, e := range edges {
				w.accessRange(e.pa, e.n)
			}
			rng := rand.New(rand.NewSource(seed*100 + int64(ways)))
			tags := uint64(ways/2 + 2) // distinct low tags per set
			for i := 0; i < 20_000; i++ {
				ln := collidingLine(sets, rng.Uint64()%sets, rng.Uint64()%tags, rng.Uint64()%4)
				pa := ln*line + rng.Uint64()%line
				switch r := rng.Intn(1000); {
				case r < 700:
					w.access(pa)
				case r < 999:
					w.accessRange(pa, rng.Intn(3*sets*line+1))
				default:
					w.invalidateAll()
				}
			}
		}
	}
}

// TestCacheTwinFingerprintSet fills one set with lines that all share a
// fingerprint, then walks it in orders that exercise every recency
// update: MRU re-hits, hits at each position, and evictions of the LRU.
func TestCacheTwinFingerprintSet(t *testing.T) {
	const sets, line = 4, 64
	for _, ways := range []int{1, 2, 8, 16} {
		w := newTwin(t, sets*ways*line, ways, line)
		pa := func(k int) uint64 { return collidingLine(sets, 2, 5, uint64(k)) * line }
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < ways+1; k++ { // one more than fits: evicts
				w.access(pa(k))
				w.access(pa(k)) // repeat filter
			}
			for k := ways; k >= 0; k-- {
				w.access(pa(k))
			}
			for k := 0; k < 3*ways; k++ {
				w.access(pa(k * 7 % (ways + 2)))
				w.access(pa(0)) // alternate with one line: MRU and non-MRU hits
			}
			w.invalidateAll()
		}
	}
}

// TestCacheTwinMachineGeometry holds the machine's LLC (2 MiB, 16-way,
// 64-byte lines) to the reference across the physical address space a
// machine can have: a uint32 frame number times 4 KiB, 2^44 bytes. The
// regions sit 2^32 to 2^43 apart, so lines at one offset in each share a
// set and a fingerprint and differ only in the tag bits above them; a
// cache that kept fewer tag bits than an address below 2^44 needs reports
// hits the reference does not. Streams run longer than the cache, region
// after region, so every line they install evicts one of another region;
// then page-sized ranges, as allocation zeroing and compaction copies
// make, mix with word probes.
func TestCacheTwinMachineGeometry(t *testing.T) {
	const space = 1 << 44
	w := newTwin(t, 2<<20, 16, 64)
	bases := []uint64{0, 1 << 32, 1 << 36, 1 << 38, 1 << 40, 1<<43 | 1<<41, space - 16<<20}
	for _, b := range bases {
		w.accessRange(b, 3<<20)
	}
	for _, b := range bases {
		w.accessRange(b+2<<20, 1<<20)
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 20_000; i++ {
		pa := bases[rng.Intn(len(bases))] + rng.Uint64()%(8<<20)
		switch r := rng.Intn(100); {
		case r < 1:
			w.accessRange(pa, rng.Intn(4<<20)) // up to two caches long
		case r < 30:
			w.accessRange(pa&^4095, 4096)
		case r < 50:
			for j := uint64(0); j < 16; j++ { // word-sequential: MRU re-hits
				w.access(pa&^7 + 8*j)
			}
		default:
			w.access(pa)
		}
	}
}

// FuzzCacheTwin requires Cache and the reference to agree on every
// operation of a generated sequence. The geometry is 1-16 ways over 1-16
// sets; each op is four bytes: a kind and in-line offset, a byte that
// picks a line from a pool, a byte whose low 3 bits pick one of eight
// lines that share that line's set and fingerprint and whose high 5 bits
// are address bits 39-43, and a range length of up to 32 lines (several
// set spans on the smaller geometries, so ranges wrap). The seed corpus
// is in testdata/fuzz/FuzzCacheTwin.
func FuzzCacheTwin(f *testing.F) {
	f.Fuzz(func(t *testing.T, waysB, setsB uint8, ops []byte) {
		const line = 64
		ways := 1 + int(waysB%MaxWays)
		sets := 1 << (setsB % 5)
		w := newTwin(t, sets*ways*line, ways, line)
		for ; len(ops) >= 4; ops = ops[4:] {
			kind, sel, k, n := ops[0], ops[1], ops[2], ops[3]
			ln := collidingLine(sets, uint64(sel)%uint64(sets), uint64(sel)/uint64(sets)%32, uint64(k%8))
			pa := ln*line + uint64(kind>>4)*4 + uint64(k>>3)<<39
			switch kind % 16 {
			case 15:
				w.invalidateAll()
			case 10, 11, 12, 13, 14:
				w.accessRange(pa, int(n)*8)
			default:
				w.access(pa)
			}
		}
	})
}
