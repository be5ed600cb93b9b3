package workloads

import (
	"fmt"
	"math/rand"
	"slices"

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
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				for r := 0; r < rounds; r++ {
					// Only the last round's result stays rooted
					// (live-set convention, fft.go).
					keep := r == rounds-1
					if err := parallelsortThread(t, rng, segments, segInts, keep); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
}

func parallelsortThread(t *jvm.Thread, rng *rand.Rand, segments, segInts int, keep bool) error {
	// Phase 1: allocate and fill the segments.
	segs := make([]*gc.Root, segments)
	vals := make([]uint64, segInts)
	for s := range segs {
		r, err := t.AllocRooted(heap.AllocSpec{Payload: segInts * 8, Class: clsSortSegment})
		if err != nil {
			return err
		}
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		if err := writeWords(t, r.Obj, vals); err != nil {
			return err
		}
		segs[s] = r
	}

	// Phase 2: sort each segment into a fresh object (churn).
	for s, r := range segs {
		if err := readWords(t, r.Obj, vals); err != nil {
			return err
		}
		slices.Sort(vals)
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
	var bufs mergeBufs
	for len(level) > 1 {
		var nextLevel []*gc.Root
		for i := 0; i+1 < len(level); i += 2 {
			merged, err := mergePair(t, level[i], level[i+1], width, &bufs)
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

	// Verify: the final array is sorted and has the right length.
	final := make([]uint64, width)
	if err := readWords(t, level[0].Obj, final); err != nil {
		return err
	}
	if len(final) != segments*segInts {
		return fmt.Errorf("parallelsort: final length %d", len(final))
	}
	for i := 1; i < len(final); i++ {
		if final[i-1] > final[i] {
			return fmt.Errorf("parallelsort: out of order at %d", i)
		}
	}
	if !keep {
		t.J.Roots.Remove(level[0])
	}
	return nil
}

// mergeBufs is per-thread merge scratch, reused across pairwise merges so
// each merge level reallocates at most once instead of once per pair.
type mergeBufs struct{ av, bv, out []uint64 }

func (b *mergeBufs) size(width int) (av, bv, out []uint64) {
	if cap(b.av) < width {
		b.av = make([]uint64, width)
		b.bv = make([]uint64, width)
	}
	if cap(b.out) < 2*width {
		b.out = make([]uint64, 0, 2*width)
	}
	return b.av[:width], b.bv[:width], b.out[:0]
}

func mergePair(t *jvm.Thread, a, b *gc.Root, width int, bufs *mergeBufs) (*gc.Root, error) {
	av, bv, out := bufs.size(width)
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
