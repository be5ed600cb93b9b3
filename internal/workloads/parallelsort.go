package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// Parallelsort is the OpenJDK Arrays.parallelSort-style benchmark: each
// thread sorts segments of a large array and merges them pairwise into
// progressively larger objects. Segments (256 KB) and merge outputs
// (512 KB, 1 MB) are all far above the swapping threshold, which makes
// this — with Bisort as its small-object JOlden sibling — one of the
// strongest cases for SwapVA compaction.
func Parallelsort() *Spec {
	const (
		threads  = 4
		segments = 4
		segInts  = 32 << 10 // int64 per segment: 256 KB objects
		rounds   = 4
	)
	// Each finished thread keeps one merged array (segments*segInts
	// words); the running thread's sort+merge working set spans about
	// three times that.
	finalBytes := footprint(heap.AllocSpec{Payload: segments * segInts * 8})
	liveBytes := int64(threads)*finalBytes + 3*finalBytes
	return &Spec{
		Name:         "Parallelsort",
		Suite:        "OpenJDK",
		PaperThreads: 896,
		PaperHeap:    "16 - 50 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 2<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			var sc sortScratch
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				for r := 0; r < rounds; r++ {
					// Only the last round's result stays rooted
					// (live-set convention, fft.go).
					keep := r == rounds-1
					if err := parallelsortThread(t, rng, &sc, segments, segInts, keep); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
}

// sortScratch is the host buffers of one Run call's Parallelsort rounds.
// Virtual threads run one after another on one goroutine, so every
// thread and round shares it and nothing is reallocated after the first
// round. vals and tmp hold one segment (tmp is the radix sort's other
// buffer); av and bv hold a merge's two inputs and out its output, and
// out doubles as the buffer the final array is read back into.
type sortScratch struct{ vals, tmp, av, bv, out []uint64 }

// grow returns (*b)[:n], reallocating *b only when it is too small.
func grow(b *[]uint64, n int) []uint64 {
	if cap(*b) < n {
		*b = make([]uint64, n)
	}
	return (*b)[:n]
}

func parallelsortThread(t *jvm.Thread, rng *rand.Rand, sc *sortScratch, segments, segInts int, keep bool) error {
	// Phase 1: allocate and fill the segments. The sum and xor of every
	// generated value are an order-independent checksum of the round,
	// kept on the host, so the final check sees a lost or duplicated key.
	segs := make([]*gc.Root, segments)
	vals := grow(&sc.vals, segInts)
	var sum, xor uint64
	for s := range segs {
		r, err := t.AllocRooted(heap.AllocSpec{Payload: segInts * 8, Class: clsSortSegment})
		if err != nil {
			return err
		}
		for i := range vals {
			v := rng.Uint64()
			vals[i] = v
			sum += v
			xor ^= v
		}
		if err := writeWords(t, r.Obj, vals); err != nil {
			return err
		}
		segs[s] = r
	}

	// Phase 2: sort each segment into a fresh object (churn). The charge
	// models the JVM's n log n comparison sort; the host may sort any way
	// that leaves the same words (a sorted []uint64 is unique).
	tmp := grow(&sc.tmp, segInts)
	for s, r := range segs {
		if err := readWords(t, r.Obj, vals); err != nil {
			return err
		}
		radixSort(vals, tmp)
		chargeOps(t, float64(segInts)*18, 1.0) // ~n log n comparisons+moves
		fresh, err := t.AllocRooted(heap.AllocSpec{Payload: segInts * 8, Class: clsSortSegment})
		if err != nil {
			return err
		}
		if err := writeWords(t, fresh.Obj, vals); err != nil {
			return err
		}
		t.J.Roots.Remove(r)
		segs[s] = fresh
	}

	// Phase 3: pairwise merges until one sorted array remains.
	level := segs
	width := segInts
	for len(level) > 1 {
		var nextLevel []*gc.Root
		for i := 0; i+1 < len(level); i += 2 {
			merged, err := mergePair(t, level[i], level[i+1], width, sc)
			if err != nil {
				return err
			}
			t.J.Roots.Remove(level[i])
			t.J.Roots.Remove(level[i+1])
			nextLevel = append(nextLevel, merged)
		}
		level = nextLevel
		width *= 2
	}

	// Verify: the final array has the right length, is sorted, and holds
	// exactly the generated values (same sum and xor).
	final := grow(&sc.out, width)
	if err := readWords(t, level[0].Obj, final); err != nil {
		return err
	}
	if len(final) != segments*segInts {
		return fmt.Errorf("parallelsort: final length %d", len(final))
	}
	var gotSum, gotXor uint64
	for i, v := range final {
		if i > 0 && final[i-1] > v {
			return fmt.Errorf("parallelsort: out of order at %d", i)
		}
		gotSum += v
		gotXor ^= v
	}
	if gotSum != sum || gotXor != xor {
		return fmt.Errorf("parallelsort: final checksum (sum %#x, xor %#x), generated (sum %#x, xor %#x)",
			gotSum, gotXor, sum, xor)
	}
	if !keep {
		t.J.Roots.Remove(level[0])
	}
	return nil
}

// radixSort sorts keys ascending: an LSD radix sort over the eight bytes
// of each key, with tmp (at least len(keys) words) as the other buffer.
// A pass is skipped when every key has the same byte in that position.
func radixSort(keys, tmp []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	src, dst := keys, tmp[:n]
	for shift := 0; shift < 64; shift += 8 {
		var cnt [256]int
		for _, k := range src {
			cnt[byte(k>>shift)]++
		}
		if cnt[byte(src[0]>>shift)] == n {
			continue
		}
		pos := 0
		for b, c := range cnt {
			cnt[b] = pos
			pos += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[cnt[b]] = k
			cnt[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

func mergePair(t *jvm.Thread, a, b *gc.Root, width int, sc *sortScratch) (*gc.Root, error) {
	av, bv, out := grow(&sc.av, width), grow(&sc.bv, width), grow(&sc.out, 2*width)[:0]
	if err := readWords(t, a.Obj, av); err != nil {
		return nil, err
	}
	if err := readWords(t, b.Obj, bv); err != nil {
		return nil, err
	}
	i, j := 0, 0
	for i < width && j < width {
		if av[i] <= bv[j] {
			out = append(out, av[i])
			i++
		} else {
			out = append(out, bv[j])
			j++
		}
	}
	out = append(out, av[i:]...)
	out = append(out, bv[j:]...)
	chargeOps(t, float64(2*width)*3, 1.0)

	r, err := t.AllocRooted(heap.AllocSpec{Payload: 2 * width * 8, Class: clsSortSegment})
	if err != nil {
		return nil, err
	}
	if err := writeWords(t, r.Obj, out); err != nil {
		return nil, err
	}
	return r, nil
}

func readWords(t *jvm.Thread, o heap.Object, dst []uint64) error {
	return t.J.Heap.ReadPayloadStream(t.Ctx, o, 0, 0, dst)
}

func writeWords(t *jvm.Thread, o heap.Object, src []uint64) error {
	return t.J.Heap.WritePayloadStream(t.Ctx, o, 0, 0, src)
}
