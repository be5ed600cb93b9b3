package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// LULarge is the SPECjvm2008 scimark.lu.large kernel: blocked LU
// factorisation (right-looking, no pivoting on a diagonally dominant
// matrix). Blocks are 96x96 doubles (~72 KB, 19 pages) — above the
// swapping threshold but with heavy arithmetic per block, so LU sits in
// the paper's middle ground between the bandwidth-bound and the
// compute-bound benchmarks.
func LULarge() *Spec {
	const (
		threads = 6
		nb      = 96 // block edge
		kBlocks = 4  // matrix is kBlocks x kBlocks blocks
	)
	liveBytes := int64(threads) * int64(kBlocks*kBlocks) * footprint(heap.AllocSpec{Payload: nb * nb * 8})
	return &Spec{
		Name:         "LU.large",
		Suite:        "SPECjvm2008",
		PaperThreads: 224,
		PaperHeap:    "3 - 5 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return luThread(t, rng, nb, kBlocks)
			})
		},
	}
}

type luBlocks struct {
	t    *jvm.Thread
	spec heap.AllocSpec
	nb   int
	grid []*gc.Root
	k    int
}

func (m *luBlocks) at(i, j int) *gc.Root { return m.grid[i*m.k+j] }

func (m *luBlocks) load(i, j int, dst []float64) error {
	return readFloats(m.t, m.at(i, j).Obj, 0, 0, dst)
}

// store writes dst into a fresh block object replacing (i,j) — the
// functional update that produces the benchmark's garbage.
func (m *luBlocks) store(i, j int, src []float64) error {
	fresh, err := m.t.AllocRooted(m.spec)
	if err != nil {
		return err
	}
	if err := writeFloats(m.t, fresh.Obj, 0, 0, src); err != nil {
		return err
	}
	m.t.J.Roots.Remove(m.at(i, j))
	m.grid[i*m.k+j] = fresh
	return nil
}

func luThread(t *jvm.Thread, rng *rand.Rand, nb, kBlocks int) error {
	m := &luBlocks{
		t:    t,
		spec: heap.AllocSpec{Payload: nb * nb * 8, Class: clsLUBlock},
		nb:   nb,
		grid: make([]*gc.Root, kBlocks*kBlocks),
		k:    kBlocks,
	}
	n := nb * kBlocks
	buf := make([]float64, nb*nb)
	rowSums := make([]float64, n)
	for bi := 0; bi < kBlocks; bi++ {
		for bj := 0; bj < kBlocks; bj++ {
			r, err := t.AllocRooted(m.spec)
			if err != nil {
				return err
			}
			for x := range buf {
				v := float64(rng.Float64()) - 0.5
				buf[x] = v
				rowSums[bi*nb+x/nb] += math.Abs(v)
			}
			if err := writeFloats(t, r.Obj, 0, 0, buf); err != nil {
				return err
			}
			m.grid[bi*kBlocks+bj] = r
		}
	}
	// Make the matrix diagonally dominant so unpivoted LU is stable:
	// bump each diagonal entry above its row's L1 mass.
	for bd := 0; bd < kBlocks; bd++ {
		if err := m.load(bd, bd, buf); err != nil {
			return err
		}
		for x := 0; x < nb; x++ {
			buf[x*nb+x] += rowSums[bd*nb+x] + 1
		}
		if err := m.store(bd, bd, buf); err != nil {
			return err
		}
	}

	diag := make([]float64, nb*nb)
	left := make([]float64, nb*nb)
	upper := make([]float64, nb*nb)
	for kd := 0; kd < kBlocks; kd++ {
		// Factorise the diagonal block in place.
		if err := m.load(kd, kd, diag); err != nil {
			return err
		}
		if err := luInPlace(diag, nb); err != nil {
			return err
		}
		chargeOps(t, 2.0/3.0*float64(nb*nb*nb), 1.0)
		if err := m.store(kd, kd, diag); err != nil {
			return err
		}
		// Triangular solves for the row and column panels.
		for bj := kd + 1; bj < kBlocks; bj++ {
			if err := m.load(kd, bj, upper); err != nil {
				return err
			}
			trsmLower(diag, upper, nb)
			chargeOps(t, float64(nb*nb*nb), 1.0)
			if err := m.store(kd, bj, upper); err != nil {
				return err
			}
		}
		for bi := kd + 1; bi < kBlocks; bi++ {
			if err := m.load(bi, kd, left); err != nil {
				return err
			}
			trsmUpper(left, diag, nb)
			chargeOps(t, float64(nb*nb*nb), 1.0)
			if err := m.store(bi, kd, left); err != nil {
				return err
			}
			// Schur complement updates along the row.
			for bj := kd + 1; bj < kBlocks; bj++ {
				if err := m.load(kd, bj, upper); err != nil {
					return err
				}
				if err := m.load(bi, bj, buf); err != nil {
					return err
				}
				gemmSub(buf, left, upper, nb)
				chargeOps(t, 2*float64(nb*nb*nb), 1.0)
				if err := m.store(bi, bj, buf); err != nil {
					return err
				}
			}
		}
	}
	// Sanity: every diagonal pivot finite and nonzero.
	for bd := 0; bd < kBlocks; bd++ {
		if err := m.load(bd, bd, diag); err != nil {
			return err
		}
		for x := 0; x < nb; x++ {
			p := diag[x*nb+x]
			if p == 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("lu: bad pivot %v at block %d, %d", p, bd, x)
			}
		}
	}
	// The factored matrix stays rooted (live-set convention, see fft.go).
	return nil
}

// luInPlace performs unpivoted LU on an nb x nb block.
func luInPlace(a []float64, nb int) error {
	for k := 0; k < nb; k++ {
		p := a[k*nb+k]
		if p == 0 {
			return fmt.Errorf("lu: zero pivot at %d", k)
		}
		for i := k + 1; i < nb; i++ {
			a[i*nb+k] /= p
			l := a[i*nb+k]
			for j := k + 1; j < nb; j++ {
				a[i*nb+j] -= float64(l * a[k*nb+j])
			}
		}
	}
	return nil
}

// trsmLower solves L * X = B in place (L unit-lower from the factored
// diagonal block, B the row-panel block).
func trsmLower(lu, b []float64, nb int) {
	for i := 1; i < nb; i++ {
		for k := 0; k < i; k++ {
			l := lu[i*nb+k]
			for j := 0; j < nb; j++ {
				b[i*nb+j] -= float64(l * b[k*nb+j])
			}
		}
	}
}

// trsmUpper solves X * U = B in place (U upper from the factored diagonal
// block, B the column-panel block).
func trsmUpper(b, lu []float64, nb int) {
	for j := 0; j < nb; j++ {
		p := lu[j*nb+j]
		for i := 0; i < nb; i++ {
			b[i*nb+j] /= p
		}
		for k := j + 1; k < nb; k++ {
			u := lu[j*nb+k]
			for i := 0; i < nb; i++ {
				b[i*nb+k] -= float64(b[i*nb+j] * u)
			}
		}
	}
}

// gemmSub computes C -= A * B for nb x nb blocks.
func gemmSub(c, a, b []float64, nb int) {
	for i := 0; i < nb; i++ {
		for k := 0; k < nb; k++ {
			av := a[i*nb+k]
			if av == 0 {
				continue
			}
			row := b[k*nb:]
			crow := c[i*nb:]
			for j := 0; j < nb; j++ {
				crow[j] -= float64(av * row[j])
			}
		}
	}
}
