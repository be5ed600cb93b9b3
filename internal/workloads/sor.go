package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// SORLargeX10 is the paper's enlarged scimark.sor variant ("a version of
// SOR.large, ten times as large as its default input size"): successive
// over-relaxation sweeps over a grid whose rows are 80 KB heap objects
// (20 pages — comfortably swappable). Each sweep writes a fresh copy of
// every row, the functional double-buffering that gives the benchmark its
// allocation pressure.
func SORLargeX10() *Spec {
	const (
		threads = 4
		rows    = 12
		cols    = 10240 // 80 KB rows
		sweeps  = 7
		omega   = 1.25
	)
	liveBytes := int64(threads) * int64(rows) * footprint(heap.AllocSpec{Payload: cols * 8})
	return &Spec{
		Name:         "SOR.large x10",
		Suite:        "SPECjvm2008",
		PaperThreads: 32,
		PaperHeap:    "51.5 - 85.8 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return sorThread(t, rng, rows, cols, sweeps, omega)
			})
		},
	}
}

func sorThread(t *jvm.Thread, rng *rand.Rand, rows, cols, sweeps int, omega float64) error {
	rowSpec := heap.AllocSpec{Payload: cols * 8, Class: clsSORRow}
	grid := make([]*gc.Root, rows)
	buf := make([]float64, cols)
	for r := range grid {
		root, err := t.AllocRooted(rowSpec)
		if err != nil {
			return err
		}
		for c := range buf {
			buf[c] = rng.Float64()
		}
		if err := writeFloats(t, root.Obj, 0, 0, buf); err != nil {
			return err
		}
		grid[r] = root
	}

	up := make([]float64, cols)
	mid := make([]float64, cols)
	down := make([]float64, cols)
	for s := 0; s < sweeps; s++ {
		for r := 1; r < rows-1; r++ {
			if err := readFloats(t, grid[r-1].Obj, 0, 0, up); err != nil {
				return err
			}
			if err := readFloats(t, grid[r].Obj, 0, 0, mid); err != nil {
				return err
			}
			if err := readFloats(t, grid[r+1].Obj, 0, 0, down); err != nil {
				return err
			}
			for c := 1; c < cols-1; c++ {
				mid[c] = float64(omega*0.25*(up[c]+down[c]+mid[c-1]+mid[c+1])) + float64((1-omega)*mid[c])
			}
			chargeOps(t, 6*float64(cols), 1.0)
			// Functional update: the new row is a fresh object, the old
			// one becomes garbage.
			fresh, err := t.AllocRooted(rowSpec)
			if err != nil {
				return err
			}
			if err := writeFloats(t, fresh.Obj, 0, 0, mid); err != nil {
				return err
			}
			t.J.Roots.Remove(grid[r])
			grid[r] = fresh
		}
	}
	// SOR with 0 < omega < 2 on this stencil keeps values within the
	// initial [0,1] hull; a drift outside means GC corrupted a row. The
	// grid stays rooted (see the live-set convention in fft.go).
	for r := range grid {
		if err := readFloats(t, grid[r].Obj, 0, 0, mid); err != nil {
			return err
		}
		for c, v := range mid {
			if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				return fmt.Errorf("sor: grid[%d][%d] = %v out of hull", r, c, v)
			}
		}
	}
	return nil
}
